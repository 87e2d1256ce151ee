import io
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import run_per_slot
from strategies import scenarios

import proxbp as P
from proxbp import cli, harness
from proxbp.harness import CSV_HEADER, CompareRun, compare, queue_mass, trace_from_csv

SIXNODE = str(Path(__file__).resolve().parents[1] / "scenarios" / "sixnode.net")


def test_single_slot_trace(singlelink, singlelink_sol):
    cfg = P.AlgConfig(np.array([1.0, 1.0]))
    tr = P.run(singlelink, "new", cfg, 1, oracle=singlelink_sol)
    assert tr.slots == 1
    x0 = 1.0 / math.sqrt(2.0)
    assert abs(tr.x[0, 0] - x0) < 1e-12
    assert np.array_equal(tr.x, tr.xbar)
    assert tr.util_inst[0] == tr.util_avg[0] == tr.util_jensen[0]
    assert abs(tr.gap[0] - (singlelink_sol.U_star - math.log(x0))) < 1e-12
    assert abs(tr.maxQ[0] - x0) < 1e-12
    assert abs(tr.lyap[0] - 0.5 * x0 * x0) < 1e-12
    assert tr.summary["passed"]


def test_running_averages_are_recomputable(sixnode):
    cfg = P.AlgConfig(P.default_alpha(sixnode.network, "utility-gap"))
    tr = P.run(sixnode, "new", cfg, 200)
    t = np.arange(1, 201)[:, None]
    assert np.max(np.abs(tr.xbar - np.cumsum(tr.x, axis=0) / t)) < 1e-12
    assert np.max(np.abs(tr.util_avg - np.cumsum(tr.util_inst) / t[:, 0])) < 1e-12
    for s in (0, 99, 199):
        assert abs(tr.util_jensen[s] - P.total_utility(sixnode, tr.xbar[s])) < 1e-12
    assert np.all(np.isnan(tr.gap))  # no oracle attached


def test_gap_column_uses_oracle(sixnode, sixnode_sol):
    cfg = P.AlgConfig(P.default_alpha(sixnode.network, "utility-gap"))
    tr = P.run(sixnode, "new", cfg, 50, oracle=sixnode_sol)
    assert np.max(np.abs(tr.gap - (sixnode_sol.U_star - tr.util_avg))) < 1e-12


def test_runs_are_deterministic(sixnode):
    cfg = P.AlgConfig(P.default_alpha(sixnode.network, "queue-bound"))
    a = P.run(sixnode, "new", cfg, 300)
    b = P.run(sixnode, "new", cfg, 300)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.maxQ, b.maxQ)
    assert np.array_equal(a.lyap, b.lyap)


def test_dpp_trace_checks(sixnode):
    tr = P.run(sixnode, "dpp", P.DppConfig(V=50.0), 400)
    assert tr.summary["passed"]
    assert tr.summary["weight_identity_max"] == 0.0  # not applicable, stays 0
    assert tr.summary["drift_identity_max"] <= 1e-9
    assert np.all(tr.maxY >= 0)


def test_queue_peaks(sixnode):
    cfg = P.AlgConfig(P.default_alpha(sixnode.network, "queue-bound"))
    tr = P.run(sixnode, "new", cfg, 200)
    assert tr.peak_Y.shape == tr.peak_Z.shape == (6, 2)
    # the per-(node, session) peaks are the peaks of the per-slot maxima
    assert tr.peak_Y.max() == tr.maxY.max()
    assert tr.peak_Z.max() == tr.maxZ.max()
    assert np.all(tr.peak_Y >= 0) and np.all(tr.peak_Z >= 0)
    b = tr.summary["observed_max_abs_q"]
    assert P.audit_queue_bounds(tr.peak_Y[None], tr.peak_Z[None], b, sixnode) == []
    assert tr.summary["queue_transfer_violations"] == []


def test_csv_round_trip(sixnode, sixnode_sol, tmp_path):
    cfg = P.AlgConfig(P.default_alpha(sixnode.network, "utility-gap"))
    tr = P.run(sixnode, "new", cfg, 40, oracle=sixnode_sol)
    text = tr.csv_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 1 + 40 * 2
    back = trace_from_csv(io.StringIO(text))
    assert back.alg == "new"
    for name in ("x", "xbar", "util_inst", "util_avg", "util_jensen",
                 "gap", "maxQ", "maxZ", "maxY", "lyap"):
        assert np.array_equal(getattr(back, name), getattr(tr, name), equal_nan=True), name
    path = tmp_path / "t.csv"
    tr.to_csv(str(path))
    assert np.array_equal(trace_from_csv(str(path)).x, tr.x)


def test_csv_nan_gap_round_trips(singlelink):
    cfg = P.AlgConfig(np.array([1.0, 1.0]))
    tr = P.run(singlelink, "new", cfg, 5)
    back = trace_from_csv(io.StringIO(tr.csv_text()))
    assert np.all(np.isnan(back.gap))


def test_rejects_bad_arguments(singlelink):
    cfg = P.AlgConfig(np.array([1.0, 1.0]))
    with pytest.raises(P.ContractError):
        P.run(singlelink, "new", cfg, 0)
    with pytest.raises(P.ContractError):
        P.run(singlelink, "greedy", cfg, 10)
    with pytest.raises(P.ContractError):
        trace_from_csv(io.StringIO("slot,alg\n"))


_ROW = "0,new,0," + ",".join(["1.0"] * 10)


@pytest.mark.parametrize("row, message", [
    ("0,new,0,abc", "trace CSV line 3: expected 13 fields, got 4"),
    ("0,new,0,abc" + _ROW[11:], "trace CSV line 3: could not convert string to float: 'abc'"),
    ("s" + _ROW[1:], "trace CSV line 3: invalid literal for int()"),
    ("-1" + _ROW[1:], "trace CSV line 3: negative slot or session"),
])
def test_trace_from_csv_names_the_bad_line(row, message):
    with pytest.raises(P.ContractError) as err:
        trace_from_csv(io.StringIO(f"{CSV_HEADER}\n{_ROW}\n{row}\n"))
    assert str(err.value).startswith(message)


def test_queue_mass_is_tail_average():
    tr = P.run(P.parse_scenario("nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog 1.0\n"),
               "dpp", P.DppConfig(V=5.0), 100)
    assert abs(queue_mass(tr) - float(np.mean(tr.z_total[-10:]))) < 1e-15


def test_compare_report(singlelink, singlelink_sol):
    runs = [CompareRun("prox", "new", alpha_mode="utility-gap"),
            CompareRun("base", "dpp", V=50.0)]
    traces, report = compare(singlelink, runs, 300, oracle=singlelink_sol)
    assert set(traces) == {"prox", "base"}
    lines = report.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("run prox alg new")
    assert "terminal_gap" in lines[0] and "z_mass" in lines[1]
    assert "checks ok" in lines[0] and "checks ok" in lines[1]


def test_save_policy_lists_nonzeros(tmp_path):
    sc, pol = P.chain_example(1, slots=4)
    path = tmp_path / "chain.sched"
    P.save_policy(pol, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "slots 4"
    arrive = [l for l in lines if l.startswith("arrive ")]
    assert len(arrive) == 4  # one packet per slot
    assert all(len(l.split()) == 5 for l in lines[1:])


# ---------------------------------------------------------------------------
# the chunked loop against the per-slot reference


def _chunk_bytes(scenario, slots_per_chunk):
    """A CHUNK_BYTES that gives run() chunks of the given number of slots;
    None keeps the default budget."""
    if slots_per_chunk is None:
        return harness.CHUNK_BYTES
    return slots_per_chunk * 8 * scenario.n_sessions * max(scenario.n_links, scenario.n_nodes)


def _config(scenario, alg):
    if alg == "new":
        return P.AlgConfig(P.default_alpha(scenario.network, "queue-bound"))
    return P.DppConfig(V=100.0)


def _assert_same_run(scenario, alg, slots, chunk, oracle=None):
    """run() with chunks of `chunk` slots (None: the default budget) gives the
    per-slot reference's trace and summary, bit for bit."""
    cfg = _config(scenario, alg)
    ref = run_per_slot(scenario, alg, cfg, slots, oracle=oracle)
    with mock.patch.object(harness, "CHUNK_BYTES", _chunk_bytes(scenario, chunk)):
        if chunk is not None:
            assert harness.chunk_slots(scenario) == chunk
        tr = P.run(scenario, alg, cfg, slots, oracle=oracle)
    assert tr.csv_text() == ref.csv_text()
    for key, value in ref.summary.items():
        assert repr(tr.summary[key]) == repr(value), key
    for name in ("z_total", "peak_Y", "peak_Z"):
        assert getattr(tr, name).tobytes() == getattr(ref, name).tobytes(), name
    return tr


@pytest.mark.parametrize("chunk", (1, 3, None))
@pytest.mark.parametrize("alg", ("new", "dpp"))
@pytest.mark.parametrize("name", ("singlelink", "sixnode"))
def test_chunked_run_matches_per_slot_reference(name, alg, chunk, request, sixnode_sol):
    scenario = request.getfixturevalue(name)
    oracle = sixnode_sol if name == "sixnode" else None
    tr = _assert_same_run(scenario, alg, 50, chunk, oracle=oracle)
    assert tr.summary["passed"]
    assert all(v is None for v in tr.summary["first_violation"].values())


def test_chunked_run_crosses_default_chunks(sixnode):
    slots = harness.chunk_slots(sixnode) + 5
    assert slots < 2 * harness.chunk_slots(sixnode)
    _assert_same_run(sixnode, "new", slots, None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sc=scenarios(), alg=st.sampled_from(("new", "dpp")),
       chunk=st.sampled_from((1, 3, None)), slots=st.sampled_from((1, 4, 7)))
def test_chunked_run_matches_reference_on_random_scenarios(sc, alg, chunk, slots):
    try:
        run_per_slot(sc, alg, _config(sc, alg), slots)
    except P.DomainError:  # a wlog source without outgoing capacity idles at x = 0
        with mock.patch.object(harness, "CHUNK_BYTES", _chunk_bytes(sc, chunk)):
            with pytest.raises(P.DomainError):
                P.run(sc, alg, _config(sc, alg), slots)
        return
    _assert_same_run(sc, alg, slots, chunk)


# ---------------------------------------------------------------------------
# faults injected past the first chunk boundary


def _inject(monkeypatch, slot, fault):
    """Make harness.slot_update apply fault(y, next state) at the given slot."""
    real = harness.slot_update

    def faulty(state, scenario, config):
        y, nxt = real(state, scenario, config)
        return fault(y, nxt, scenario) if state.t == slot else (y, nxt)

    monkeypatch.setattr(harness, "slot_update", faulty)


@pytest.mark.parametrize("chunk", (3, None))
def test_overcapacity_decision_is_reported_at_its_slot(sixnode, monkeypatch, tmp_path, chunk):
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, chunk))
    k = harness.chunk_slots(sixnode) + 2
    slots = k + 4
    injected = []

    def overload(y, nxt, scenario):
        mu = y.mu.copy()
        mu[0, 0] = scenario.network.caps[0] + 0.5  # sixnode lets session 0 use link 0
        injected.append(P.DecisionVector(y.x, mu))
        return injected[-1], nxt

    _inject(monkeypatch, k, overload)
    tr = P.run(sixnode, "new", _config(sixnode, "new"), slots)
    with pytest.raises(P.ScenarioValidationError) as err:
        P.validate_decision(sixnode, injected[0])
    assert tr.summary["feasibility_violations"] == [(k, str(err.value))]
    assert tr.summary["first_violation"]["feasibility"] == (k, str(err.value))
    assert tr.summary["passed"] is False
    code = cli.main(["run", "--scenario", SIXNODE, "--slots", str(slots),
                     "--out", str(tmp_path / "t.csv")])
    assert code == 1


@pytest.mark.parametrize("chunk", (3, None))
def test_perturbed_weight_fails_the_weight_identity(sixnode, monkeypatch, chunk):
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, chunk))
    k = harness.chunk_slots(sixnode) + 2
    _inject(monkeypatch, k, lambda y, nxt, sc: (y, P.BpState(nxt.Q, nxt.y_prev, nxt.t,
                                                             nxt.W + 1e-9)))
    tr = P.run(sixnode, "new", _config(sixnode, "new"), k + 4)
    s = tr.summary
    assert s["weight_identity_max"] > harness.WEIGHT_IDENTITY_TOL
    slot, value = s["first_violation"]["weight_identity"]
    assert slot == k and value == s["weight_identity_max"]
    assert s["passed"] is False
    others = {name: v for name, v in s["first_violation"].items() if name != "weight_identity"}
    assert all(v is None for v in others.values()), others
