import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
import reference
from gridlp import grid_best_utility, kelley_bracket
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import CSV_TOKENS, arrays, scenarios

import proxbp as P
from proxbp import cli, oracle
from proxbp.oracle import (OracleError, compute_zeta, dual_value, repair_feasible,
                           solve_centralized, tighten_to_equality)


def test_singlelink_analytic_optimum(singlelink, singlelink_sol):
    sol = singlelink_sol
    assert abs(sol.U_star - 0.0) <= 1e-5
    assert abs(sol.x_star[0] - 1.0) <= 1e-4
    assert sol.duality_gap <= 1e-5
    assert sol.max_violation <= 1e-9
    assert sol.weak_duality_margin >= -1e-9
    # unique multiplier of the original problem: marginal utility at x = 1
    assert abs(sol.lambda_star[0, 0] - 1.0) <= 5e-2
    assert sol.lambda_star[1, 0] == 0.0
    # alpha defaults to the utility-gap preset: both nodes get 1
    assert list(sol.alpha) == [1.0, 1.0]
    assert abs(sol.zeta - 3.0) <= 1e-3


def test_wider_link_scales_the_optimum():
    sc = P.parse_scenario("nodes 2\nlink 0 1 2.0\nsession 0 0 1 wlog 1.0\n")
    sol = solve_centralized(sc, tol=1e-6)
    assert abs(sol.U_star - math.log(2.0)) <= 1e-6
    assert abs(sol.x_star[0] - 2.0) <= 1e-4
    assert abs(sol.lambda_star[0, 0] - 0.5) <= 5e-2


def test_relay_multipliers_reflect_bottleneck(relay):
    sol = solve_centralized(relay, tol=1e-6)
    assert abs(sol.U_star - math.log(0.5)) <= 1e-6
    assert abs(sol.x_star[0] - 0.5) <= 1e-4
    # marginal value of relaxing flow balance anywhere on the path is U'(0.5)
    assert abs(sol.lambda_star[0, 0] - 2.0) <= 1e-1
    assert abs(sol.lambda_star[1, 0] - 2.0) <= 1e-1


def test_sixnode_certified_and_matches_grid(sixnode, sixnode_sol):
    sol = sixnode_sol
    assert sol.duality_gap <= 1e-5
    assert sol.max_violation <= 1e-9
    assert sol.weak_duality_margin >= -1e-9
    best = grid_best_utility(sixnode)
    assert abs(sol.U_star - best) <= 2e-2
    # the optimum trades the shared link: rates near (1.2, 1.8)
    assert abs(sol.x_star[0] - 1.2) <= 2e-2
    assert abs(sol.x_star[1] - 1.8) <= 2e-2


def test_singlelink_matches_grid(singlelink, singlelink_sol):
    best = grid_best_utility(singlelink)
    assert abs(singlelink_sol.U_star - best) <= 2e-2


def test_wlog1p_session_can_idle():
    # a log1p session with low weight on a shared link yields to a log session
    sc = P.parse_scenario(
        "nodes 2\nlink 0 1 1.0\n"
        "session 0 0 1 wlog 1.0\nsession 1 0 1 wlog1p 0.2\n")
    sol = solve_centralized(sc, tol=1e-6)
    # KKT: log session alone prices the link at 1.0 > 0.2 = the log1p marginal
    assert abs(sol.x_star[0] - 1.0) <= 1e-3
    assert sol.x_star[1] <= 1e-3
    assert abs(sol.U_star - grid_best_utility(sc)) <= 2e-2


def test_dual_value_examples(singlelink):
    lam = np.zeros((2, 1))
    # nonpositive source multiplier: the inner sup diverges
    assert dual_value(singlelink, lam) == math.inf
    lam[0, 0] = 1.0
    # q(1) = sup(log x - x) + 1 * capacity = -1 + 1 = 0
    assert abs(dual_value(singlelink, lam) - 0.0) < 1e-12
    lam[0, 0] = 2.0
    # q(2) = log(1/2) - 1 + 2
    assert abs(dual_value(singlelink, lam) - (math.log(0.5) + 1.0)) < 1e-12


@st.composite
def _multipliers(draw):
    """(scenario, lam): coarse signed multipliers, so zero and tied link
    prices are common, with positive source entries unless a draw says
    otherwise, and at most one NaN off the sources."""
    sc = draw(scenarios(allow=("mixed",)))
    shape = (sc.n_nodes, sc.n_sessions)
    lam = arrays(draw, shape, (-1.0, 0.0, 0.5, 1.0, 2.0), -2.0, 2.0, coarse=True)
    lam.put(sc.src_entries, arrays(draw, (sc.n_sessions,), (-1.0, 0.5, 1.0, 2.0), -1.0, 2.0,
                                   coarse=True))
    off_src = np.setdiff1d(np.arange(lam.size), sc.src_entries)
    k = draw(st.integers(-1, off_src.size - 1))
    if k >= 0:
        lam.put(off_src[k], math.nan)
    return sc, lam


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_multipliers())
def test_dual_value_matches_the_link_loop(case):
    sc, lam = case
    # repr tells every float apart, and equal NaNs and infinities match
    assert repr(dual_value(sc, lam)) == repr(reference.dual_value(sc, lam))


def test_dual_value_upper_bounds_feasible_utilities(sixnode, sixnode_sol):
    # weak duality at the reported multipliers, against random feasible points
    rng = np.random.default_rng(10)
    q = dual_value(sixnode, sixnode_sol.lambda_star)
    checked = 0
    for _ in range(50):
        x = rng.uniform(0.05, 2.0, 2)
        mu = rng.uniform(0.0, 0.5, (8, 2))
        xr, mur = repair_feasible(sixnode, x, mu)
        if np.any(xr <= 1e-9):
            continue  # repair zeroed a log rate, utility undefined there
        assert P.total_utility(sixnode, xr) <= q + 1e-9
        checked += 1
    assert checked >= 20


def test_lagrangian_certificate_at_solution(sixnode, sixnode_sol):
    # U(y*) + lam* . (-g(y*)) cannot exceed the dual value at lam*
    sol = sixnode_sol
    g = P.residual_matrix(sixnode, sol.x_star, sol.mu_star)
    lagr = P.total_utility(sixnode, sol.x_star) - float(np.sum(sol.lambda_star * g))
    assert lagr <= dual_value(sixnode, sol.lambda_star) + 1e-9


def test_repair_produces_feasible_points(sixnode):
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.uniform(0.0, 4.0, 2)
        mu = rng.normal(0.0, 1.0, (8, 2))
        xr, mur = repair_feasible(sixnode, x, mu)
        P.validate_decision(sixnode, xr, mur)
        g = P.residual_matrix(sixnode, xr, mur)
        assert float(g.max()) <= 1e-12


def test_repair_keeps_feasible_points_exactly(sixnode, sixnode_sol):
    # feasible inputs: the optimum with its rates scaled down, and repaired
    # random points with theirs scaled down
    rng = np.random.default_rng(12)
    points = [(s * sixnode_sol.x_star, sixnode_sol.mu_star) for s in (1.0, 0.5, 0.25)]
    for _ in range(20):
        xr, mur = repair_feasible(sixnode, rng.uniform(0.0, 4.0, 2), rng.uniform(0.0, 1.0, (8, 2)))
        points.append((0.7 * xr, mur))
    for x, mu in points:
        xr, mur = repair_feasible(sixnode, x, mu)
        assert np.array_equal(xr, x)
        P.validate_decision(sixnode, xr, mur)
        g = P.residual_matrix(sixnode, xr, mur)
        assert float(np.abs(g[sixnode.active]).max()) <= 1e-12


@st.composite
def _any_rates(draw):
    """(scenario, x, mu) with zero, -0.0 and negative rates, nonzero rates on
    forbidden pairs, links loaded far over their capacities and, in about
    half the cases, one NaN rate. The coarse draws share values, which makes
    equal bottlenecks common."""
    sc = draw(scenarios())
    coarse = draw(st.booleans())
    x = arrays(draw, (sc.n_sessions,), (0.0, -0.0, -1.0, 0.5, 3.0), -1.0, 4.0, coarse)
    mu = arrays(draw, (sc.n_links, sc.n_sessions), (0.0, -0.0, -0.5, 0.25, 1.0, 60.0),
                -0.5, 60.0, coarse)
    at = draw(st.none() | st.integers(0, x.size + mu.size - 1))  # where the NaN goes
    if at is not None and at < x.size:
        x[at] = math.nan
    elif at is not None:
        mu.flat[at - x.size] = math.nan
    return sc, x, mu


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_any_rates())
def test_list_search_matches_the_link_search(case):
    sc, x, mu = case
    assert sc.in_trees.tobytes() == reference.in_trees(sc).tobytes()
    got, want = repair_feasible(sc, x, mu), reference.repair_feasible(sc, x, mu)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_tighten_preserves_objective_and_closes_slack(relay):
    # loose feasible points: source sends 0.3, both links carry more, by
    # much or by less than a slack tolerance of 1e-9 would notice
    for carried in (0.5, 0.3 + 5e-10):
        x, mu = np.array([0.3]), np.array([[carried], [carried]])
        assert float(P.residual_matrix(relay, x, mu).max()) <= 0
        tight_x, tight_mu = tighten_to_equality(relay, x, mu)
        assert tight_x[0] == x[0]
        g = P.residual_matrix(relay, tight_x, tight_mu)
        assert float(np.abs(g[relay.active]).max()) <= 1e-12


def test_tighten_drops_junk_relay_flow():
    # a dead-end carrying flow that never reaches the destination
    sc = P.parse_scenario(
        "nodes 4\nlink 0 1 1.0\nlink 1 2 1.0\nlink 1 3 1.0\n"
        "session 0 0 2 wlog 1.0\n")
    tight_x, tight_mu = tighten_to_equality(sc, np.array([0.4]), np.array([[0.6], [0.6], [0.0]]))
    g = P.residual_matrix(sc, tight_x, tight_mu)
    assert float(np.abs(g[sc.active]).max()) <= 1e-9
    assert abs(tight_mu[0, 0] - 0.4) <= 1e-12
    assert abs(tight_mu[1, 0] - 0.4) <= 1e-12


def test_tighten_is_idempotent(relay):
    once = tighten_to_equality(relay, np.array([0.3]), np.array([[0.9], [0.5]]))
    twice = tighten_to_equality(relay, *once)
    assert np.array_equal(once[0], twice[0])
    assert np.array_equal(once[1], twice[1])


@st.composite
def _loose_points(draw):
    """(scenario, x, mu): a repaired random point with its source rates scaled
    by 1, 0.8 or 0.3, so feasible and, below 1, loose at the sources."""
    sc = draw(scenarios())
    x = arrays(draw, (sc.n_sessions,), (0.5, 1.0, 3.0), 0.1, 3.0, draw(st.booleans()))
    mu = arrays(draw, (sc.n_links, sc.n_sessions), (0.0, 0.25, 1.0), 0.0, 2.0,
                draw(st.booleans()))
    xr, mur = repair_feasible(sc, x, mu)
    return sc, draw(st.sampled_from((1.0, 0.8, 0.3))) * xr, mur


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_loose_points())
# a link loaded two ulps, 3.6e-12, over its capacity of 1e4 passes
# validate_decision, within 2 F eps cap, but the repair scales it down, so
# the peel cannot route all of x
@example(case=(P.parse_scenario("nodes 2\nlink 0 1 10000.0\nsession 0 0 1 wlog 1.0\n"),
               np.array([10000.000000000004]), np.array([[10000.000000000004]])))
def test_tighten_closes_every_loose_point(case):
    sc, x, mu = case
    P.validate_decision(sc, x, mu)
    tight_x, tight_mu = tighten_to_equality(sc, x, mu)
    # x is kept bitwise unless a link carries more than 1e-12 over its capacity
    if (mu.sum(axis=1) - sc.network.caps <= 1e-12).all():
        assert tight_x.tobytes() == x.tobytes()
    assert (tight_x <= x).all()
    assert (tight_mu <= mu).all()
    P.validate_decision(sc, tight_x, tight_mu)
    g = P.residual_matrix(sc, tight_x, tight_mu)
    assert float(np.abs(g[sc.active]).max(initial=0.0)) <= 1e-12


def test_zeta_examples(singlelink):
    z = compute_zeta(singlelink, np.zeros(1), np.zeros((1, 1)), np.ones(2))
    assert z == 0.0
    x, mu = np.array([1.0]), np.array([[1.0]])
    # x^2 at the source + mu^2 at both endpoints, all alpha 1
    assert compute_zeta(singlelink, x, mu, np.ones(2)) == 3.0
    # the destination end still counts, the tail contribution doubles with alpha
    assert compute_zeta(singlelink, x, mu, np.array([2.0, 1.0])) == 5.0
    with pytest.raises(P.ContractError, match="^alpha has 3 entries for 2 nodes$"):
        compute_zeta(singlelink, x, mu, np.ones(3))


def test_zeta_scales_quadratically(sixnode, sixnode_sol):
    a = sixnode_sol.alpha
    x, mu = sixnode_sol.x_star, sixnode_sol.mu_star
    z1 = compute_zeta(sixnode, x, mu, a)
    assert abs(compute_zeta(sixnode, 2.0 * x, 2.0 * mu, a) - 4.0 * z1) < 1e-9
    assert abs(compute_zeta(sixnode, x, mu, 2.0 * a) - 2.0 * z1) < 1e-9


def test_solution_round_trip(sixnode, sixnode_sol, tmp_path):
    path = tmp_path / "six.sol"
    P.save_solution(sixnode_sol, sixnode, path)
    again = P.load_solution(path, sixnode)
    assert again.U_star == sixnode_sol.U_star
    assert again.duality_gap == sixnode_sol.duality_gap
    assert again.zeta == sixnode_sol.zeta
    assert np.array_equal(again.x_star, sixnode_sol.x_star)
    assert np.array_equal(again.mu_star, sixnode_sol.mu_star)
    assert np.array_equal(again.lambda_star, sixnode_sol.lambda_star)
    assert np.array_equal(again.alpha, sixnode_sol.alpha)


@pytest.mark.parametrize("line, message", [
    ("alpha 0 -1", "alpha -1.0 is not positive"),
    ("alpha 0 0", "alpha 0.0 is not positive"),
    ("x 0 -5", "x -5.0 is negative"),
    ("mu 0 0 -2", "mu -2.0 is negative"),
    ("zeta -3", "zeta -3.0 is negative"),
    ("max_violation -1", "max_violation -1.0 is negative"),
])
def test_parse_solution_rejects_a_value_the_solver_never_writes(sixnode, sixnode_sol, line,
                                                                 message):
    # in place of the report's own line the value is at fault; after the
    # report's last line the line is one too many
    lines = P.serialize_solution(sixnode_sol, sixnode).splitlines()
    entry = line.rsplit(" ", 1)[0]
    lineno = next(i for i, own in enumerate(lines, start=1) if own.rsplit(" ", 1)[0] == entry)
    edited = lines[:lineno - 1] + [line] + lines[lineno:]
    with pytest.raises(P.ContractError, match=f"^report line {lineno}: {message}$"):
        P.parse_solution("\n".join(edited) + "\n", sixnode)
    with pytest.raises(P.ContractError, match=f"^report line {len(lines) + 1}: '{line}' where "
                                              f"the end of the report comes next$"):
        P.parse_solution("\n".join(lines + [line]) + "\n", sixnode)


GOLDEN = Path(__file__).resolve().parent / "golden"


def _assert_parse_names(lines, lineno, entry, scenario):
    """parse_solution of lines names line lineno (1-based), or the end of the
    report past the last line, as the place where entry comes next."""
    if lineno <= len(lines):
        message = f"report line {lineno}: {lines[lineno - 1]!r} where {entry} comes next"
    else:
        message = f"report has no {entry} line"
    with pytest.raises(P.ContractError, match=f"^{re.escape(message)}$"):
        P.parse_solution("\n".join(lines) + "\n", scenario)


@pytest.mark.parametrize("name, extra, first", [
    ("singlelink", "ustar 99.0", "ustar"),
    ("singlelink", "x 0 5.0", "x 0"),
    ("sixnode", "mu 7 1 0.25", "mu 7 1"),
    ("sixnode", "lambda 0 0 -1.5", "lambda 0 0"),
    ("sixnode", "alpha 5 2.0", "alpha 5"),
])
def test_parse_solution_rejects_a_repeated_directive(name, extra, first, request):
    # the golden report loads and has its first line; a second one after
    # the report's last line is one line too many
    scenario = request.getfixturevalue(name)
    text = (GOLDEN / f"{name}.oracle").read_text(encoding="utf-8")
    P.parse_solution(text, scenario)
    lines = text.splitlines()
    assert any(line.startswith(first + " ") for line in lines)
    _assert_parse_names(lines + [extra], len(lines) + 1, "the end of the report", scenario)


@pytest.mark.parametrize("scenario_text, extra, entry", [
    ("", "lambda 5 0 5.0", "lambda 5 0"),  # session 0's destination, where lambda is 0
    ("", "lambda 3 1 -1.0", "lambda 3 1"),  # session 1's destination
    ("allow 7 0\n", None, "mu 7 1"),  # the golden report's own line, off the allow-set
])
def test_parse_solution_rejects_an_entry_the_report_never_writes(scenario_text, extra, entry):
    # serialize_solution writes lambda at the active pairs and mu at the
    # allowed ones only: in place of another entry's line, or after the
    # report's last line, another entry names its line and the entry the
    # golden report writes next
    sixnode = (Path(__file__).resolve().parents[1] / "scenarios" / "sixnode.net").read_text()
    scenario = P.parse_scenario(sixnode + scenario_text)
    lines = (GOLDEN / "sixnode.oracle").read_text(encoding="utf-8").splitlines()
    if extra is not None:
        lines.append(extra)
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(entry + " "))
    after = lines[lineno].rsplit(" ", 1)[0] if lineno < len(lines) else "the end of the report"
    _assert_parse_names(lines, lineno, after, scenario)


@pytest.mark.parametrize("name, dropped, first", [
    ("singlelink", ("alpha ", "x "), "alpha 0"),  # else read as alpha = 0 and x = 0
    ("singlelink", ("x ",), "x 0"),
    ("sixnode", ("mu 3 1 ",), "mu 3 1"),
    ("sixnode", ("lambda 4 ",), "lambda 4 0"),
    ("sixnode", ("lambda 5 ",), "lambda 5 1"),  # the report's last line
])
def test_parse_solution_rejects_a_report_that_lacks_an_entry(name, dropped, first, request):
    # the report holds one line for every entry it carries; the line in
    # place of the first missing one, or the end of the report, names it
    scenario = request.getfixturevalue(name)
    lines = (GOLDEN / f"{name}.oracle").read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(dropped))
    kept = [line for line in lines if not line.startswith(dropped)]
    _assert_parse_names(kept, lineno, first, scenario)


@st.composite
def mutated_reports(draw):
    """A golden report's scenario name and its text with one to three
    mutations: one token of a line replaced from CSV_TOKENS, a # comment
    after a line, or a line moved, dropped, duplicated or preceded by a
    blank or # comment line."""
    name = draw(st.sampled_from(("singlelink", "sixnode")))
    lines = (GOLDEN / f"{name}.oracle").read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("token", "comment", "move", "drop", "duplicate", "blank")))
        if kind == "token":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(CSV_TOKENS))
            lines[i] = " ".join(tokens)
        elif kind == "comment":
            lines[i] += " # edited"
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "move":
            line = lines.pop(i)
            lines.insert(draw(st.integers(0, len(lines))), line)
        else:
            lines.insert(i, draw(st.sampled_from(("", " ", "\t", "# edited"))))
    return name, "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=mutated_reports())
def test_parse_solution_reads_a_mutated_report_or_names_its_fault(case, singlelink, sixnode):
    # a mutated report either parses to a solution that serialize_solution
    # writes as the same entries and values in the same order, or raises an
    # error that names a line holding an entry or an entry the report lacks
    name, text = case
    scenario = {"singlelink": singlelink, "sixnode": sixnode}[name]
    read = [line.split("#", 1)[0].split() for line in text.splitlines()]
    try:
        sol = P.parse_solution(text, scenario)
    except P.ContractError as e:
        at = re.fullmatch(r"report line (\d+): .+", str(e))
        if at is not None:
            assert read[int(at[1]) - 1], str(e)
        else:
            assert re.fullmatch(r"report has no [a-z_]+( \d+)* line", str(e)), str(e)
        return
    written = [line.split() for line in P.serialize_solution(sol, scenario).splitlines()]
    assert [(t[:-1], float(t[-1]).hex()) for t in written] == \
        [(t[:-1], float(t[-1]).hex()) for t in read if t]


@pytest.mark.parametrize("alpha, message", [
    (np.array([1.0, -13.0]), "alpha must be a vector of positive reals"),
    (np.array([1.0, math.nan]), "alpha must be a vector of positive reals"),
    (np.ones(3), "alpha has 3 entries for 2 nodes"),
    (np.ones((2, 1)), "alpha must be a vector of positive reals"),
])
def test_solve_centralized_rejects_a_bad_alpha_before_solving(singlelink, alpha, message,
                                                              monkeypatch):
    # AlgConfig's rule for alpha, which a run applies too; before, a negative
    # or NaN alpha gave a zeta that load_solution refuses, and a wrong-shape
    # one failed in compute_zeta after the whole solve
    monkeypatch.setattr(oracle, "_barrier_problem", None)  # any solve would call it
    with pytest.raises(P.ContractError, match=f"^{message}$"):
        solve_centralized(singlelink, alpha=alpha)


def test_solve_centralized_refuses_a_zeta_that_overflows(sixnode):
    # each alpha is finite, but zeta at the optimum overflows; before, the
    # solve returned zeta inf, whose report parse_solution refuses
    with pytest.raises(P.ContractError, match="^zeta inf is not finite$"):
        solve_centralized(sixnode, alpha=np.full(6, 1e308))


def test_parse_solution_keeps_lambda_and_weak_margin_signed(sixnode, sixnode_sol):
    # each in place of the report's own line: a repeated one is an error
    signed = {"lambda 0 0": "lambda 0 0 -1.5", "weak_margin": "weak_margin -2.0"}
    text = "\n".join(signed.get(line.rsplit(" ", 1)[0], line) for line in
                     P.serialize_solution(sixnode_sol, sixnode).splitlines())
    sol = P.parse_solution(text, sixnode)
    assert sol.lambda_star[0, 0] == -1.5 and sol.weak_duality_margin == -2.0


def test_solution_decision_is_read_only_float64(sixnode, sixnode_sol, singlelink):
    # the optimum's rates, multipliers and alpha, as solve_centralized returns
    # them and as a report parses back, are shared read-only float64 arrays of
    # the scenario's shapes
    parsed = P.parse_solution(P.serialize_solution(sixnode_sol, sixnode), sixnode)
    for sol in (sixnode_sol, parsed):
        for a, shape in ((sol.x_star, (2,)), (sol.mu_star, (8, 2)),
                         (sol.lambda_star, (6, 2)), (sol.alpha, (6,))):
            assert a.shape == shape and a.dtype == np.float64
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
    # the solution keeps a copy of the caller's alpha, which stays writable
    a = np.ones(2)
    sol = solve_centralized(singlelink, alpha=a)
    assert sol.alpha is not a and not np.shares_memory(sol.alpha, a)
    a[0] = 7.0
    assert list(sol.alpha) == [1.0, 1.0]
    assert sol.zeta == compute_zeta(singlelink, sol.x_star, sol.mu_star, sol.alpha)


@pytest.mark.parametrize("name", ("sixnode", "singlelink"))
def test_oracle_report_is_pinned(name, tmp_path, capsys):
    # the report bytes of `proxbp oracle --tol 1e-5`; a change that moves the
    # oracle (a new solver, another residual sum order) must re-record them
    golden = Path(__file__).resolve().parent / "golden" / f"{name}.oracle"
    out = tmp_path / "report.txt"
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.net"
    assert cli.main(["oracle", "--scenario", str(scenario), "--tol", "1e-5",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()
    assert capsys.readouterr().out.startswith(f"report written to {out}\nU_star ")


def test_oracle_rejects_bad_tolerance(singlelink, capsys):
    for tol in (0.0, -1e-5, math.inf, math.nan):
        with pytest.raises(P.ContractError, match="^tol must be positive and finite"):
            solve_centralized(singlelink, tol=tol)
    # an infinite tol would certify any gap
    path = Path(__file__).resolve().parents[1] / "scenarios" / "singlelink.net"
    assert cli.main(["oracle", "--scenario", str(path), "--tol", "inf"]) == 2
    assert capsys.readouterr().err == "proxbp: tol must be positive and finite, got inf\n"


def test_oracle_fails_fast_past_the_newton_byte_cap(sixnode, gridgen, monkeypatch, capsys):
    # the 10x10 grid with 20 sessions: 7148 variables, whose dense G (2340
    # rows) and Hessian would take 543 MB, so the solve stops before it
    # allocates them
    grid = P.parse_scenario(gridgen.grid_scenario(10, 20, 1))
    t0 = time.monotonic()
    with pytest.raises(OracleError, match=r"^the Newton system has 7148 variables, and its G "
                                          r"and Hessian need 542561792 bytes, over the cap "
                                          r"of 67108864; proxbp run simulates") as info:
        solve_centralized(grid, tol=1e-5)
    assert time.monotonic() - t0 < 1.0
    assert info.value.history == ()
    # the cap is inclusive: sixnode's system has 16 variables and 17 rows
    monkeypatch.setattr(oracle, "NEWTON_BYTES_MAX", 8 * 16 * (17 + 16))
    assert solve_centralized(sixnode, tol=1e-5).duality_gap <= 1e-5
    monkeypatch.setattr(oracle, "NEWTON_BYTES_MAX", 8 * 16 * (17 + 16) - 1)
    with pytest.raises(OracleError, match="the Newton system has 16 variables"):
        solve_centralized(sixnode, tol=1e-5)
    # the CLI reports it like any failed solve
    path = Path(__file__).resolve().parents[1] / "scenarios" / "sixnode.net"
    assert cli.main(["oracle", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("oracle failed: the Newton system has 16 ")


def test_failed_solve_reports_history(sixnode):
    # 1e-13 is below what double precision lets the barrier certify
    with pytest.raises(OracleError) as info:
        solve_centralized(sixnode, tol=1e-13)
    err = info.value
    rows = err.history
    assert len(rows) >= 2
    assert [r[0] for r in rows] == [10.0 ** k for k in range(len(rows))]
    for t, primal, dual, gap, steps in rows:
        assert gap == dual - primal and steps >= 1
    # the Newton steps of each centering: a change to the centering that
    # moves them has to say so here
    assert [r[4] for r in rows] == [14, 5, 7, 8, 8, 7, 7, 7, 7, 7, 8, 7]
    assert err.best_gap > 1e-13
    assert str(err).endswith(str(rows[-1]))


def test_singular_newton_system_reports_history(sixnode, gridgen, monkeypatch, capsys):
    # With one BLAS thread the Newton system of the seeded 5x5/6 grid is
    # singular at t = 1e10; with more threads the gap stops shrinking there
    # first. Either way the solve ends in an OracleError.
    grid = P.parse_scenario(gridgen.grid_scenario(5, 6, 1))
    with pytest.raises(OracleError):
        solve_centralized(grid, tol=1e-7)
    # a singular system at the 20th Newton step, whatever the BLAS
    real, calls = np.linalg.solve, []

    def solve(a, b):
        calls.append(None)
        if len(calls) == 20:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(OracleError, match="singular") as info:
        solve_centralized(sixnode, tol=1e-13)
    err = info.value
    rows = err.history
    assert rows and sum(r[4] for r in rows) < 20  # the centerings done before it
    assert [r[0] for r in rows] == [10.0 ** k for k in range(len(rows))]
    assert err.best_gap == min(r[2] for r in rows) - max(r[1] for r in rows)
    # the CLI reports it like any failed solve
    calls.clear()
    path = Path(__file__).resolve().parents[1] / "scenarios" / "sixnode.net"
    assert cli.main(["oracle", "--scenario", str(path), "--tol", "1e-13"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("oracle failed: no certificate at tol=1e-13") and "singular" in err


def test_oracle_fails_fast_once_the_gap_grows(sixnode):
    # On sixnode the gap of a centering shrinks tenfold per centering down to
    # about 4e-8 at t = 1e9 and then grows: the Newton system has lost
    # precision. Waiting for m / t to pass tol / 100 took 13 centerings.
    with pytest.raises(OracleError, match="the gap stopped shrinking") as info:
        solve_centralized(sixnode, tol=1e-8)
    err = info.value
    gaps = [row[3] for row in err.history]
    assert len(gaps) < 13
    assert gaps[-3] < gaps[-2] < gaps[-1]
    assert all(a > b for a, b in zip(gaps[:-2], gaps[1:-2]))
    assert err.best_gap <= 3e-8
    assert str(err).endswith(str(err.history[-1]))


@pytest.mark.parametrize("n,sessions,seed", [(3, 4, 1), (5, 6, 1), (5, 6, 2), (5, 6, 3)])
def test_oracle_certifies_grids(n, sessions, seed, gridgen):
    sc = P.parse_scenario(gridgen.grid_scenario(n, sessions, seed))
    t0 = time.monotonic()
    sol = solve_centralized(sc, tol=1e-5)
    seconds = time.monotonic() - t0
    assert seconds <= 10.0
    assert 0.0 <= sol.duality_gap <= 1e-5
    assert sol.max_violation <= 1e-9
    assert sol.weak_duality_margin >= -1e-9
    lo, hi = kelley_bracket(sc)
    assert sol.U_star <= hi + 1e-9
    assert sol.U_star + sol.duality_gap >= lo - 1e-9
