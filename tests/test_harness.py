import hashlib
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import reference
from reference import run_per_slot
from strategies import scenarios

import proxbp as P
from proxbp import cli, engine, harness, queues
from proxbp.harness import CSV_HEADER, CompareRun, compare, queue_mass, trace_from_csv

SIXNODE = str(Path(__file__).resolve().parents[1] / "scenarios" / "sixnode.net")


def test_single_slot_trace(singlelink, singlelink_sol):
    cfg = P.AlgConfig(np.array([1.0, 1.0]))
    tr = P.run(singlelink, cfg, 1, oracle=singlelink_sol)
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
    tr = P.run(sixnode, cfg, 200)
    t = np.arange(1, 201)[:, None]
    assert np.max(np.abs(tr.xbar - np.cumsum(tr.x, axis=0) / t)) < 1e-12
    assert np.max(np.abs(tr.util_avg - np.cumsum(tr.util_inst) / t[:, 0])) < 1e-12
    for s in (0, 99, 199):
        assert abs(tr.util_jensen[s] - P.total_utility(sixnode, tr.xbar[s])) < 1e-12
    assert np.all(np.isnan(tr.gap))  # no oracle attached


def test_gap_column_uses_oracle(sixnode, sixnode_sol):
    cfg = P.AlgConfig(P.default_alpha(sixnode.network, "utility-gap"))
    tr = P.run(sixnode, cfg, 50, oracle=sixnode_sol)
    assert np.max(np.abs(tr.gap - (sixnode_sol.U_star - tr.util_avg))) < 1e-12


def test_runs_are_deterministic(sixnode):
    cfg = P.AlgConfig(P.default_alpha(sixnode.network, "queue-bound"))
    a = P.run(sixnode, cfg, 300)
    b = P.run(sixnode, cfg, 300)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.maxQ, b.maxQ)
    assert np.array_equal(a.lyap, b.lyap)


def test_dpp_trace_checks(sixnode):
    tr = P.run(sixnode, P.DppConfig(V=50.0), 400)
    assert tr.alg == "dpp"
    assert tr.summary["passed"]
    assert tr.summary["weight_identity_max"] == 0.0  # not applicable, stays 0
    assert tr.summary["drift_identity_max"] <= 1e-9
    assert np.all(tr.maxY >= 0)


def test_queue_peaks(sixnode):
    cfg = P.AlgConfig(P.default_alpha(sixnode.network, "queue-bound"))
    tr = P.run(sixnode, cfg, 200)
    assert tr.peak_Y.shape == tr.peak_Z.shape == (6, 2)
    # the per-(node, session) peaks are the peaks of the per-slot maxima
    assert tr.peak_Y.max() == tr.maxY.max()
    assert tr.peak_Z.max() == tr.maxZ.max()
    assert np.all(tr.peak_Y >= 0) and np.all(tr.peak_Z >= 0)
    b = tr.summary["observed_max_abs_q"]
    assert P.audit_queue_bounds(tr.peak_Y, tr.peak_Z, b, sixnode, 200) == []
    assert tr.summary["queue_transfer_violations"] == []


def _csv_text(trace):
    """The text that trace.to_csv writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "trace.csv")
        trace.to_csv(path)
        return path.read_text(encoding="utf-8")


def _from_csv_text(text, tmp_path):
    """trace_from_csv on a file that holds text."""
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    return trace_from_csv(path)


def test_csv_round_trip(sixnode, sixnode_sol, tmp_path):
    cfg = P.AlgConfig(P.default_alpha(sixnode.network, "utility-gap"))
    tr = P.run(sixnode, cfg, 40, oracle=sixnode_sol)
    text = _csv_text(tr)
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 1 + 40 * 2
    back = _from_csv_text(text, tmp_path)
    assert back.alg == "new"
    for name in ("x", "xbar", "util_inst", "util_avg", "util_jensen",
                 "gap", "maxQ", "maxZ", "maxY", "lyap"):
        assert np.array_equal(getattr(back, name), getattr(tr, name), equal_nan=True), name
    path = tmp_path / "t.csv"
    tr.to_csv(str(path))
    assert np.array_equal(trace_from_csv(str(path)).x, tr.x)


def test_csv_nan_gap_round_trips(singlelink, tmp_path):
    cfg = P.AlgConfig(np.array([1.0, 1.0]))
    tr = P.run(singlelink, cfg, 5)
    back = _from_csv_text(_csv_text(tr), tmp_path)
    assert np.all(np.isnan(back.gap))


def test_rejects_bad_arguments(singlelink, tmp_path):
    cfg = P.AlgConfig(np.array([1.0, 1.0]))
    with pytest.raises(P.ContractError):
        P.run(singlelink, cfg, 0)
    # the config's type picks the algorithm; any other object is rejected
    # before any slot runs, the old (algorithm, config) form too
    with mock.patch.object(harness, "slot_update") as slot, \
            mock.patch.object(harness, "dpp_slot_update") as dpp_slot:
        for bad in ("new", None, CompareRun("c")):
            with pytest.raises(P.ContractError, match="^config must be an AlgConfig or a "
                                                      f"DppConfig, got {type(bad).__name__}$"):
                P.run(singlelink, bad, 10)
    slot.assert_not_called()
    dpp_slot.assert_not_called()
    with pytest.raises(P.ContractError):
        _from_csv_text("slot,alg\n", tmp_path)


NOT_COUNTS = (2.5, 7.9, True, np.True_, 0, np.int64(0), -3, "3", None)


@pytest.mark.parametrize("slots", NOT_COUNTS)
def test_run_rejects_a_slot_count_that_is_no_positive_integer(singlelink, slots):
    with pytest.raises(P.ContractError, match="^slots must be a positive integer, got "):
        P.run(singlelink, P.AlgConfig(np.array([1.0, 1.0])), slots)


def test_run_takes_a_numpy_integer_slot_count(singlelink):
    cfg = P.AlgConfig(np.array([1.0, 1.0]))
    assert _csv_text(P.run(singlelink, cfg, np.int32(3))) == _csv_text(P.run(singlelink, cfg, 3))


@pytest.mark.parametrize("bad", [b for b in NOT_COUNTS if b is not None])
def test_chain_example_rejects_a_count_that_is_no_positive_integer(bad):
    with pytest.raises(P.ContractError, match="^k must be a positive integer, got "):
        P.chain_example(bad)
    with pytest.raises(P.ContractError, match="^slots must be a positive integer, got "):
        P.chain_example(2, slots=bad)


def test_chain_example_takes_numpy_integer_counts():
    sc, pol = P.chain_example(np.int64(2), slots=np.int32(7))
    ref_sc, ref = P.chain_example(2, slots=7)
    assert sc == ref_sc and pol.slots == 7
    for name in ("arrivals", "mu", "mu_instant"):
        assert getattr(pol, name).tobytes() == getattr(ref, name).tobytes()


_ROW = "0,new,0," + ",".join(["1.0"] * 10)


@pytest.mark.parametrize("row, message", [
    ("0,new,0,abc", "trace CSV line 3: expected 13 fields, got 4"),
    ("0,new,0,abc" + _ROW[11:], "trace CSV line 3: could not convert string to float: 'abc'"),
    ("s" + _ROW[1:], "trace CSV line 3: invalid literal for int()"),
    ("-1" + _ROW[1:], "trace CSV line 3: negative slot or session"),
    (_ROW, "trace CSV line 3: slot 0 session 0 repeats line 2"),
    ("0,dpp,1," + _ROW[8:], "trace CSV line 3: alg 'dpp' differs from the earlier rows' 'new'"),
    ("1,new,1," + _ROW[8:], "trace CSV has no row for slot 0 session 1"),
    # rows for every pair but the last, which is the first missing one
    (f"0,new,1,{_ROW[8:]}\n1,new,0,{_ROW[8:]}", "trace CSV has no row for slot 1 session 1"),
    # a huge index names the first missing pair without building the whole grid
    ("99999999999,new,0," + _ROW[8:], "trace CSV has no row for slot 1 session 0"),
    ("0,new,99999999999," + _ROW[8:], "trace CSV has no row for slot 0 session 1"),
    # one past int64: the pair goes to the dict of pairs seen, its values nowhere
    (f"0,new,{2**63}," + _ROW[8:], "trace CSV has no row for slot 0 session 1"),
])
def test_trace_from_csv_names_the_bad_line(row, message, tmp_path):
    with pytest.raises(P.ContractError) as err:
        _from_csv_text(f"{CSV_HEADER}\n{_ROW}\n{row}\n", tmp_path)
    assert str(err.value).startswith(message)


# tokens that a mutation writes into a trace CSV: special and signed floats,
# integers past float precision and past int64, a non-ASCII digit, nothing
CSV_TOKENS = ("nan", "inf", "-0.0", "1e999", str(10**20), str(2**63), "\u0663", "")


@st.composite
def mutated_csv_texts(draw):
    """The to_csv text of a short run on a generated scenario, with up to
    three mutations after its header: one token of a line replaced from
    CSV_TOKENS, or a line moved, dropped, duplicated or preceded by a blank
    one."""
    sc = draw(scenarios())
    config = (P.DppConfig(V=10.0) if draw(st.booleans())
              else P.AlgConfig(P.default_alpha(sc.network, "queue-bound")))
    lines = _csv_text(P.run(sc, config, draw(st.integers(1, 3)))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if len(lines) < 2:
            break
        i = draw(st.integers(1, len(lines) - 1))
        kind = draw(st.sampled_from(("token", "move", "drop", "duplicate", "blank")))
        if kind == "token":
            tokens = lines[i].split(",")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(CSV_TOKENS))
            lines[i] = ",".join(tokens)
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
        elif kind == "move":
            line = lines.pop(i)
            lines.insert(draw(st.integers(1, len(lines))), line)
        else:
            lines.insert(i, draw(st.sampled_from(("", " ", "\t"))))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=mutated_csv_texts())
def test_trace_from_csv_matches_the_reference_reader(text):
    # the typed-array reader gives the reference's fields bit for bit, NaN
    # and -0.0 included, or raises the reference's exact message
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "trace.csv")
        path.write_text(text, encoding="utf-8")
        try:
            want = reference.trace_from_csv(path)
        except P.ContractError as e:
            with pytest.raises(P.ContractError) as err:
                trace_from_csv(path)
            assert str(err.value) == str(e)
            return
        got = trace_from_csv(path)
    assert got.alg == want.alg
    for name in ("x", "xbar") + harness.SLOT_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def _traced_peak(fn) -> int:
    """The peak of the memory that fn() allocates, in bytes, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_csv_memory_is_proportional_to_the_trace(gridgen, soak_runs, tmp_path):
    # the reader keeps typed arrays, not a Python object per value, and the
    # writer formats a block of slots at a time: neither holds the trace as
    # Python floats
    grid = P.parse_scenario(gridgen.grid_scenario(10, 20, 5))
    path = tmp_path / "grid.csv"
    P.run(grid, P.DppConfig(V=100.0), 300).to_csv(path)
    assert _traced_peak(lambda: trace_from_csv(path)) <= 2**20
    six = soak_runs["sixnode"][2]
    head = harness.Trace(alg=six.alg, **{name: getattr(six, name)[:20_000]
                                        for name in ("x", "xbar") + harness.SLOT_COLUMNS})
    assert _traced_peak(lambda: head.to_csv(tmp_path / "six.csv")) <= 2 * 2**20


def test_queue_mass_is_tail_average():
    tr = P.run(P.parse_scenario("nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog 1.0\n"),
               P.DppConfig(V=5.0), 100)
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


def test_compare_run_rejects_a_field_of_the_other_algorithm(singlelink):
    with pytest.raises(P.ContractError, match="^option alpha-mode is for alg new, not dpp$"):
        compare(singlelink, [CompareRun("a", "dpp", alpha_mode="utility-gap", alpha_scale=9.0)],
                5)
    with pytest.raises(P.ContractError, match="^option V is for alg dpp, not new$"):
        CompareRun("b", "new", V=3.0, x_max=0.1)
    with pytest.raises(P.ContractError, match="^option x-max is for alg dpp, not new$"):
        CompareRun("b", x_max=0.1)  # an omitted algorithm means new
    with pytest.raises(P.ContractError, match="^algorithm must be 'new' or 'dpp', got 'greedy'$"):
        CompareRun("c", "greedy")
    # a left-out field takes its default in its own algorithm's cell only
    assert CompareRun("d") == CompareRun("d", "new", "queue-bound", 1.0)
    assert (CompareRun("d").V, CompareRun("d").x_max) == (None, None)
    dpp = CompareRun("e", "dpp")
    assert (dpp.alpha_mode, dpp.alpha_scale, dpp.V, dpp.x_max) == (None, None, 500.0, None)


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
    ref = run_per_slot(scenario, cfg, slots, oracle=oracle)
    with mock.patch.object(harness, "CHUNK_BYTES", _chunk_bytes(scenario, chunk)):
        if chunk is not None:
            assert harness.chunk_slots(scenario) == chunk
        tr = P.run(scenario, cfg, slots, oracle=oracle)
    assert _csv_text(tr) == _csv_text(ref)
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


# a DPP wlog source without outgoing capacity idles at x = 0, where both
# give NaN utilities
IDLE_WLOG = P.Scenario(P.Network(2, (P.Link(1, 0, 1.0),)),
                       (P.Session(0, 0, 1, P.Utility("wlog", 1.0)),), (frozenset({0}),))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sc=scenarios(), alg=st.sampled_from(("new", "dpp")),
       chunk=st.sampled_from((1, 3, None)), slots=st.sampled_from((1, 4, 7)))
@example(sc=IDLE_WLOG, alg="dpp", chunk=None, slots=4)
def test_chunked_run_matches_reference_on_random_scenarios(sc, alg, chunk, slots):
    _assert_same_run(sc, alg, slots, chunk)


@pytest.mark.parametrize("chunk", (1, None))
def test_nan_utility_fails_the_run(chunk):
    # the idle source breaks no feasibility rule, but a NaN utility is no result
    tr = _assert_same_run(IDLE_WLOG, "dpp", 4, chunk)
    s = tr.summary
    assert np.isnan(tr.util_inst).all()
    assert s["feasibility_violations"] == []
    slot, value = s["first_violation"]["utility"]
    assert slot == 0 and math.isnan(value)
    assert s["passed"] is False


# the `proxbp run` cases whose trace CSV and stdout are pinned by sha256 in
# tests/golden/runs.sha256: name -> (scenario, flags), the scenario a shipped
# one or a perfbench/gridgen.py grid (side, sessions, seed); sixnode new
# crosses the 2048-slot audit chunk, and the grid run at a small alpha, whose
# loads exceed their capacities by more than 1e-9 through rounding, passes
PINNED_RUNS = {
    "sixnode-new": ("sixnode", ["--slots", "3000"]),
    "sixnode-dpp": ("sixnode", ["--slots", "3000", "--alg", "dpp", "--V", "100"]),
    "singlelink-new": ("singlelink", ["--slots", "3000"]),
    "grid5x5f6s3-new-1e-6": ((5, 6, 3), ["--slots", "2000", "--alpha-scale", "1e-6"]),
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_run_trace_is_pinned(name, tmp_path, monkeypatch, capsys, gridgen):
    # a change that moves a trace by one bit fails here; one that moves it on
    # purpose re-records the hashes
    golden = Path(__file__).resolve().parent / "golden" / "runs.sha256"
    pinned = dict(reversed(line.split()) for line in golden.read_text().splitlines())
    scenario, flags = PINNED_RUNS[name]
    path = Path(SIXNODE).with_name(f"{scenario}.net")
    if isinstance(scenario, tuple):
        path = tmp_path / "grid.net"
        path.write_text(gridgen.grid_scenario(*scenario), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # a relative --out keeps the path out of stdout
    assert cli.main(["run", "--scenario", str(path), *flags, "--out", "trace.csv"]) == 0
    got = {f"{name}.csv": hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest(),
           f"{name}.out": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    assert got == {k: pinned[k] for k in got}


# ---------------------------------------------------------------------------
# faults injected past the first chunk boundary


def _inject(monkeypatch, slot, fault):
    """Make harness.slot_update apply fault(x, mu, W, scenario) to its
    decisions and weights at the given slot of every run. Slots are counted
    per SlotConstants, which run() builds once per run."""
    real = harness.slot_update
    slots_done = {}

    def faulty(Q, g_prev, x_prev, mu_prev, consts):
        x, mu, W = real(Q, g_prev, x_prev, mu_prev, consts)
        t = slots_done[consts] = slots_done.get(consts, -1) + 1
        return fault(x, mu, W, consts.scenario) if t == slot else (x, mu, W)

    monkeypatch.setattr(harness, "slot_update", faulty)


@pytest.mark.parametrize("chunk", (3, None))
def test_overcapacity_decision_is_reported_at_its_slot(sixnode, monkeypatch, tmp_path, chunk):
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, chunk))
    k = harness.chunk_slots(sixnode) + 2
    slots = k + 4
    injected = []

    def overload(x, mu, W, scenario):
        mu = mu.copy()
        mu[0, 0] = scenario.network.caps[0] + 0.5  # sixnode lets session 0 use link 0
        injected.append((x, mu))
        return x, mu, W

    _inject(monkeypatch, k, overload)
    tr = P.run(sixnode, _config(sixnode, "new"), slots)
    with pytest.raises(P.ScenarioValidationError) as err:
        P.validate_decision(sixnode, *injected[0])
    assert tr.summary["feasibility_violations"] == [(k, str(err.value))]
    assert tr.summary["first_violation"]["feasibility"] == (k, str(err.value))
    assert tr.summary["passed"] is False
    code = cli.main(["run", "--scenario", SIXNODE, "--slots", str(slots),
                     "--out", str(tmp_path / "t.csv")])
    assert code == 1


def _rates_shifted_at(slot, shift):
    """dpp_slot_update with shift added to the rates of the given slot."""
    real = P.dpp_slot_update
    calls = []

    def faulty(Q, scenario, config, out=None):
        x, mu = real(Q, scenario, config, out=out)
        calls.append(None)
        return (x + shift, mu) if len(calls) == slot + 1 else (x, mu)

    return faulty


def _in_domain(scenario, x) -> bool:
    try:
        P.total_utility(scenario, x)
    except P.DomainError:
        return False
    return True


@pytest.mark.parametrize("chunk", (1, None))
@pytest.mark.parametrize("name, shift", (("sixnode", -10.0), ("chain", -1.5)))
def test_negative_rate_is_reported_with_nan_utilities(request, monkeypatch, name, shift, chunk):
    # the run returns its trace: the fault at its slot, and NaN utilities
    # wherever the rates leave the domain, as in the per-slot reference.
    # sixnode's sessions are wlog; the chain's are wlog1p, and a rate of 1
    # at slot 4 becomes -0.5, where log(1 + x) is finite
    sc = request.getfixturevalue("sixnode") if name == "sixnode" else P.chain_example(2)[0]
    monkeypatch.setattr(harness, "dpp_slot_update", _rates_shifted_at(4, shift))
    monkeypatch.setattr(reference, "dpp_slot_update", _rates_shifted_at(4, shift))
    tr = _assert_same_run(sc, "dpp", 12, chunk)
    s = tr.summary
    assert s["first_violation"]["feasibility"] == (4, "negative rate in decision")
    assert s["first_violation"]["utility"][0] == 4
    assert s["feasibility_violations"] == [(4, "negative rate in decision")]
    assert s["passed"] is False
    slots = np.arange(12)
    assert np.isnan(tr.util_inst).tolist() == (slots == 4).tolist()
    assert np.isnan(tr.util_avg).tolist() == (slots >= 4).tolist()
    jensen_nan = np.isnan(tr.util_jensen).tolist()
    assert jensen_nan == [not _in_domain(sc, r) for r in tr.xbar]
    assert not any(jensen_nan[:4])


@pytest.mark.parametrize("chunk", (3, None))
def test_perturbed_weight_fails_the_weight_identity(sixnode, monkeypatch, chunk):
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, chunk))
    # slot 0 has weights too: W(0) = 0 is checked like any later slot
    for k in (0, harness.chunk_slots(sixnode) + 2):
        with monkeypatch.context() as m:
            _inject(m, k, lambda x, mu, W, sc: (x, mu, W + 1e-9))
            tr = P.run(sixnode, _config(sixnode, "new"), k + 4)
        s = tr.summary
        slot, value = s["first_violation"]["weight_identity"]
        assert slot == k and value == s["weight_identity_max"]
        # max |Q(k)| and max |Q(k - 1)| are the maxQ of the two slots before
        q_max = np.concatenate((np.zeros(2), tr.maxQ))
        assert value > harness.weight_identity_limit(q_max[k + 1], q_max[k])
        assert s["passed"] is False
        others = {name: v for name, v in s["first_violation"].items()
                  if name != "weight_identity"}
        assert all(v is None for v in others.values()), others


@pytest.mark.parametrize("chunk", (3, None))
def test_perturbed_engine_residual_fails_the_weight_identity(sixnode, monkeypatch, chunk):
    # the engine forms W(t) = Q(t) + g from the residual g it is handed and
    # the harness checks it against 2 Q(t) - Q(t-1) from its own queues, so a
    # fault in the residual handed to slot k shows at slot k
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, chunk))
    k = harness.chunk_slots(sixnode) + 2
    real = harness.slot_update
    calls = []

    def faulty(Q, g_prev, x_prev, mu_prev, consts):
        if len(calls) == k:
            g_prev = g_prev.copy()
            g_prev[0, 0] += 1e-9  # node 0 is session 0's source
        calls.append(None)
        return real(Q, g_prev, x_prev, mu_prev, consts)

    monkeypatch.setattr(harness, "slot_update", faulty)
    tr = P.run(sixnode, _config(sixnode, "new"), k + 4)
    assert len(calls) == k + 4
    s = tr.summary
    slot, value = s["first_violation"]["weight_identity"]
    assert slot == k and 0.9e-9 < value < 1.1e-9
    assert s["passed"] is False
    others = {name: v for name, v in s["first_violation"].items() if name != "weight_identity"}
    assert all(v is None for v in others.values()), others


@pytest.mark.parametrize("chunk", (3, None))
@pytest.mark.parametrize("mode", ("stale", "zeros", "settled"))
def test_wrong_residual_handed_to_the_engine_fails_the_weight_identity(sixnode, monkeypatch,
                                                                       mode, chunk):
    # from slot 4 on, a loop that hands slot_update the residual of two slots
    # back, or zeros, in place of the one that stepped Q: the weight identity
    # fails at the first slot where the two differ. Slot 4 is in the second
    # chunk of 3 slots. "settled" hands the stale residual from slot 2048 on,
    # the first slot of the second default chunk, where the run has settled:
    # it is off by less than 1e-12 there, but by thousands of eps max |Q|.
    # Each run ends at the slot that gets the first wrong residual.
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, chunk))
    start = 2048 if mode == "settled" else 4
    real = harness.slot_update
    handed, stepped = [], []

    def wrong(Q, g_prev, x_prev, mu_prev, consts):
        g = g_prev
        if len(stepped) >= start:
            g = np.zeros_like(g_prev) if mode == "zeros" else stepped[-1]
        stepped.append(g_prev)
        handed.append(g)
        return real(Q, g, x_prev, mu_prev, consts)

    monkeypatch.setattr(harness, "slot_update", wrong)
    tr = P.run(sixnode, _config(sixnode, "new"), start + 1)
    first = next(t for t, (h, g) in enumerate(zip(handed, stepped)) if not np.array_equal(h, g))
    assert first == start
    slot, value = tr.summary["first_violation"]["weight_identity"]
    # max |Q(t)| and max |Q(t-1)| are the maxQ of the two slots before
    limit = harness.weight_identity_limit(tr.maxQ[first - 1], tr.maxQ[first - 2])
    assert slot == first and value > limit
    # the settled fault is below 1e-12, once an absolute limit of this check
    assert (value < 1e-12) == (mode == "settled")
    assert tr.summary["passed"] is False


@pytest.mark.parametrize("mode", ("queue-bound", "utility-gap"))
def test_identity_limits_scale_with_the_queues(mode):
    # with both session weights 1e5, max |Q| reaches about 2e4: an honest
    # run's rounding then exceeds 1e-9 in the drift identity and 1e-12 in the
    # weight identity, the absolute limits these checks once had, but not
    # the limits that scale with L and max |Q|
    text = Path(SIXNODE).read_text(encoding="utf-8")
    sc = P.parse_scenario(text.replace(" wlog 1.0", " wlog 1e5").replace(" wlog 1.5", " wlog 1e5"))
    tr = P.run(sc, P.AlgConfig(P.default_alpha(sc.network, mode)), 3000)
    s = tr.summary
    assert tr.maxQ.max() > 2e4
    assert s["drift_identity_max"] > 1e-9
    assert s["weight_identity_max"] > 1e-12
    assert s["passed"], s["first_violation"]


def test_identity_limits():
    # c = 3 D + 8 with D = 25 additions up to 128 terms and one more per
    # split of a larger sum, plus the underflow floor of (5 n + 2) smallest
    # subnormals, all that is left where the relative part is not finite
    drift, weight = harness.drift_identity_limit, harness.weight_identity_limit
    unit = 1.0 / np.finfo(float).eps
    assert [float(drift(unit, 0.0, n)) for n in (12, 128, 129, 2000)] == [83.0, 83.0, 86.0, 98.0]
    floor = 62 * math.ulp(0.0)
    assert float(drift(0.0, 0.0, 12)) == floor
    assert float(drift(1e-300, 0.0, 12)) == 83.0 * np.finfo(float).eps * 1e-300 + floor
    assert float(weight(unit, 0.0)) == 4.0 and float(weight(0.0, 0.0)) == 0.0
    for bad in (math.nan, math.inf):
        assert float(drift(bad, 1.0, 12)) == floor
    # a proximal slot runs from finite queues only: weight has no fallback
    assert math.isnan(weight(math.nan, 1.0)) and weight(math.inf, 1.0) == math.inf


def test_small_alpha_run_passes_its_drift_identity(capsys):
    # --alpha-scale 1e-5 lets the queues grow to about 7e3 in 100 slots
    assert cli.main(["run", "--scenario", SIXNODE, "--slots", "100",
                     "--alpha-scale", "1e-5"]) == 0
    drift = float(capsys.readouterr().out.split(" drift ")[1].split()[0])
    assert drift > 1e-9  # an absolute limit of 1e-9 would fail it


def _routable(scenario) -> bool:
    try:
        P.net.require_routable(scenario)
    except P.ScenarioValidationError:
        return False
    return True


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sc=scenarios().filter(_routable),
       alg=st.sampled_from(("queue-bound", "utility-gap", "dpp")),
       exponent=st.integers(-6, 6))
def test_honest_runs_pass_at_every_alpha_scale(sc, alg, exponent):
    # every check's limit follows the rounding of the arithmetic it reads,
    # so a run passes whatever the size of its queues: alpha scaled by 1e-6
    # to 1e6 under both presets, and V = 100 scaled alike for DPP. A routable
    # scenario has no idle DPP wlog source, whose NaN utility fails a run.
    scale = 10.0 ** exponent
    config = (P.DppConfig(V=100.0 * scale) if alg == "dpp"
              else P.AlgConfig(P.default_alpha(sc.network, alg) * scale))
    tr = P.run(sc, config, 100)
    assert tr.summary["passed"], (tr.summary["first_violation"],
                                  tr.summary["queue_transfer_violations"])


def _load_limit(trace, scenario, config, slot, link):
    """decision_faults' limit on the excess of a link's load at a slot of a
    run: 4 F^2 eps scale for a proximal run, 2 F eps cap for DPP."""
    n_f, cap = scenario.n_sessions, scenario.network.caps[link]
    if isinstance(config, P.DppConfig):
        return 2 * n_f * np.finfo(float).eps * cap
    q_max = np.concatenate((np.zeros(2), trace.maxQ))  # max |Q(t)| from t = -1
    denom = P.SlotConstants(scenario, config).link_denom[link, 0]
    scale = cap + 6.0 * max(q_max[slot + 1], q_max[slot]) / denom
    return 4 * n_f * n_f * np.finfo(float).eps * scale


@pytest.mark.parametrize("chunk", (3, None))
@pytest.mark.parametrize("alg", ("new", "dpp"))
def test_small_overload_is_reported_at_its_slot_and_link(sixnode, monkeypatch, alg, chunk):
    # from slot k on, link 3 carries 1e-11 over its capacity in session 1:
    # thousands of times the rounding its decisions allow, yet below the
    # absolute 1e-9 this check once had
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, chunk))
    k = harness.chunk_slots(sixnode) + 2
    link, cap = 3, float(sixnode.network.caps[3])
    calls = []

    def overload(mu):
        if len(calls) >= k:
            mu[link] = 0.0
            mu[link, 1] = cap + 1e-11
        calls.append(None)

    if alg == "new":
        real = harness.slot_update

        def faulty(Q, g_prev, x_prev, mu_prev, consts):
            x, mu, W = real(Q, g_prev, x_prev, mu_prev, consts)
            overload(mu)
            return x, mu, W

        monkeypatch.setattr(harness, "slot_update", faulty)
    else:
        real = harness.dpp_slot_update

        def faulty(Y, scenario, config, out=None):
            x, mu = real(Y, scenario, config, out=out)
            overload(mu)
            return x, mu

        monkeypatch.setattr(harness, "dpp_slot_update", faulty)
    config = _config(sixnode, alg)
    tr = P.run(sixnode, config, k + 4)
    load = cap + 1e-11
    assert _load_limit(tr, sixnode, config, k, link) * 1e3 < load - cap < 1e-9
    message = f"link {link} overloaded: load {load!r} exceeds capacity {cap!r}"
    s = tr.summary
    assert s["feasibility_violations"] == [(t, message) for t in range(k, k + 4)]
    assert s["first_violation"]["feasibility"] == (k, message)
    assert s["passed"] is False


def test_small_q_step_fault_fails_the_drift_identity_at_its_slot(sixnode, monkeypatch):
    # a settled DPP run (V = 100) whose Q step at slot k errs in one entry by
    # about twice the drift limit of that slot, which is below 1e-9:
    # the drift identity, the only check of DPP's Q recursion, names slot k
    k = 2500
    real = harness.step_Q
    calls, limits = [], []

    def faulty(Q, g, out=None):
        nxt = real(Q, g, out=out)
        if len(calls) == k:
            lyap = 0.5 * float((Q * Q).sum()), 0.5 * float((nxt * nxt).sum())
            limits.append(float(harness.drift_identity_limit(lyap[1], lyap[0], Q.size)))
            n, f = np.unravel_index(np.argmax(np.abs(nxt)), nxt.shape)
            nxt[n, f] += 2.0 * limits[0] / abs(nxt[n, f])
        calls.append(None)
        return nxt

    monkeypatch.setattr(harness, "step_Q", faulty)
    tr = P.run(sixnode, P.DppConfig(V=100.0), k + 10)
    s = tr.summary
    slot, value = s["first_violation"]["drift_identity"]
    assert slot == k and limits[0] < value < 1e-9
    assert s["drift_identity_max"] == value
    others = {name: v for name, v in s["first_violation"].items() if name != "drift_identity"}
    assert all(v is None for v in others.values()), others
    assert s["passed"] is False


@pytest.mark.parametrize("alg", ("new", "dpp"))
def test_one_residual_per_slot(sixnode, monkeypatch, alg):
    # run() computes each slot's residual once: it steps the queues and, in a
    # proximal run, feeds the next slot's weights. Chunks of 3 slots.
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, 3))
    with mock.patch.object(harness, "residual_matrix", wraps=P.residual_matrix) as spy, \
            mock.patch.object(engine, "residual_matrix", spy):
        P.run(sixnode, _config(sixnode, alg), 7)
    assert spy.call_count == 7


@pytest.mark.parametrize("alg", ("new", "dpp"))
def test_the_loop_steps_y_and_q_and_the_audit_steps_z(sixnode, monkeypatch, alg):
    # under both algorithms the slot loop steps Y by step_Y and Q by step_Q,
    # one slot each, and the chunk audit steps Z, which no decision reads,
    # once per chunk. 7 slots in chunks of 3.
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, 3))
    with mock.patch.object(queues.ZSteps, "__call__", autospec=True,
                           side_effect=queues.ZSteps.__call__) as z_chunk, \
            mock.patch.object(harness, "step_Y", wraps=harness.step_Y) as y_step, \
            mock.patch.object(harness, "step_Q", wraps=queues.step_Q) as q_step:
        P.run(sixnode, _config(sixnode, alg), 7)
    assert not hasattr(harness, "step_Z")  # the harness has no one-slot Z step to call
    assert q_step.call_count == 7
    # ZSteps.__call__(self, Z, arrivals, mu, out): mu holds the chunk's slots
    assert [len(c.args[3]) for c in z_chunk.call_args_list] == [3, 3, 1]
    # step_Y(Y, g, scenario, out=...): g is one slot's (N, F)
    assert [c.args[1].shape for c in y_step.call_args_list] == [(6, 2)] * 7


@pytest.mark.parametrize("chunk", (3, None))
@pytest.mark.parametrize("alg", ("new", "dpp"))
def test_nan_residual_fails_the_drift_identity_at_its_slot(sixnode, monkeypatch, alg, chunk):
    monkeypatch.setattr(harness, "CHUNK_BYTES", _chunk_bytes(sixnode, chunk))
    k = harness.chunk_slots(sixnode) + 2
    real = harness.residual_matrix
    calls = []

    def faulty(scenario, x, mu, out=None):  # the harness computes one residual per slot
        g = real(scenario, x, mu, out=out)
        if len(calls) == k:
            g[0, 0] = math.nan
        calls.append(None)
        return g

    monkeypatch.setattr(harness, "residual_matrix", faulty)
    # the proximal engine decides from the harness's Q, so a NaN queue ends
    # the run before the next slot; DPP decides from Y and runs on
    tr = P.run(sixnode, _config(sixnode, alg), k + 4)
    assert tr.slots == (k + 1 if alg == "new" else k + 4)
    for column in (tr.util_avg, tr.gap, tr.maxQ, tr.lyap, tr.z_total):
        assert column.shape == (tr.slots,)
    s = tr.summary
    slot, value = s["first_violation"]["drift_identity"]
    assert slot == k and math.isnan(value)
    assert s["passed"] is False
