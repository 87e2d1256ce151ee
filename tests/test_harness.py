import io
import math

import numpy as np
import pytest

import proxbp as P
from proxbp.harness import CSV_HEADER, CompareRun, compare, queue_mass, trace_from_csv


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
