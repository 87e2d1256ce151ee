import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import proxbp as P
from proxbp import cli
from proxbp.cli import main, parse_plan

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SINGLE = str(SCENARIO_DIR / "singlelink.net")
SIXNODE = str(SCENARIO_DIR / "sixnode.net")


def test_run_writes_trace_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["run", "--scenario", SINGLE, "--alg", "new", "--slots", "50",
                 "--alpha-mode", "gap", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("slot,alg,session,")
    assert len(text.splitlines()) == 51
    captured = capsys.readouterr().out
    assert "checks ok" in captured


def test_run_dpp_flags(tmp_path):
    out = tmp_path / "d.csv"
    code = main(["run", "--scenario", SINGLE, "--alg", "dpp", "--V", "25",
                 "--x-max", "0.5", "--slots", "20", "--out", str(out)])
    assert code == 0
    tr = P.trace_from_csv(str(out))
    assert float(tr.x.max()) <= 0.5 + 1e-12


def test_run_rejects_infinite_x_max_before_any_slot(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run started")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "d.csv"
    code = main(["run", "--scenario", SINGLE, "--alg", "dpp", "--x-max", "inf",
                 "--slots", "20", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("proxbp: x_max must be positive and finite")
    assert not out.exists()


def test_oracle_round_trips_through_cli(tmp_path):
    sol_path = tmp_path / "single.sol"
    code = main(["oracle", "--scenario", SINGLE, "--out", str(sol_path)])
    assert code == 0
    sc = P.load_scenario(SINGLE)
    sol = P.load_solution(sol_path, sc)
    assert abs(sol.U_star) <= 1e-5
    assert sol.duality_gap <= 1e-5


def test_run_consumes_oracle_report(tmp_path):
    sol_path = tmp_path / "single.sol"
    assert main(["oracle", "--scenario", SINGLE, "--out", str(sol_path)]) == 0
    out = tmp_path / "t.csv"
    code = main(["run", "--scenario", SINGLE, "--slots", "30",
                 "--oracle", str(sol_path), "--out", str(out)])
    assert code == 0
    tr = P.trace_from_csv(str(out))
    assert not np.any(np.isnan(tr.gap))


def test_gen_chain_writes_both_files(tmp_path):
    code = main(["gen", "chain", "--k", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    sc = P.load_scenario(tmp_path / "chain2.net")
    assert sc.n_nodes == 7 and sc.n_links == 8
    sched = (tmp_path / "chain2.sched").read_text()
    assert sched.startswith("slots 12")
    assert "mu_instant" in sched


# tests/golden/chains.sha256: name -> `gen chain` flags
PINNED_CHAINS = {"chain1": ["--k", "1"], "chain2": ["--k", "2"], "chain5": ["--k", "5"],
                 "chain3-slots7": ["--k", "3", "--slots", "7"]}


@pytest.mark.parametrize("name", PINNED_CHAINS)
def test_gen_chain_output_is_pinned(name, tmp_path):
    # a change that moves one byte of a generated chain fails here
    golden = Path(__file__).resolve().parent / "golden" / "chains.sha256"
    pinned = dict(reversed(line.split()) for line in golden.read_text().splitlines())
    flags = PINNED_CHAINS[name]
    assert main(["gen", "chain", *flags, "--out-dir", str(tmp_path)]) == 0
    got = {f"{name}.{ext}": hashlib.sha256(
               (tmp_path / f"chain{flags[1]}.{ext}").read_bytes()).hexdigest()
           for ext in ("net", "sched")}
    assert got == {k: pinned[k] for k in got}


def test_compare_plan_flow(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("# tiny plan\nslots 60\n"
                    "run name=prox alg=new alpha-mode=gap\n"
                    "run name=base alg=dpp V=20 x-max=1.0\n")
    out_dir = tmp_path / "cmp"
    code = main(["compare", "--scenario", SINGLE, "--spec", str(plan),
                 "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "prox.csv").exists()
    assert (out_dir / "base.csv").exists()
    report = (out_dir / "report.txt").read_text()
    assert "run prox" in report and "run base alg dpp V 20.0 x_max 1.0 " in report
    assert "checks ok" in capsys.readouterr().out


def test_parse_plan_errors(singlelink):
    with pytest.raises(P.ContractError):
        parse_plan("run alg=new\n", singlelink)  # missing name
    with pytest.raises(P.ContractError):
        parse_plan("run name=a alg=spicy\n", singlelink)
    with pytest.raises(P.ContractError):
        parse_plan("run name=a alg=new turbo=1\n", singlelink)
    with pytest.raises(P.ContractError):
        parse_plan("slots 50\n", singlelink)  # no runs
    slots, runs = parse_plan("slots 7\nrun name=a alg=new alpha-scale=2.5\n", singlelink)
    assert slots == 7
    assert runs[0].alpha_scale == 2.5
    assert runs[0].alpha_mode == "queue-bound"
    with pytest.raises(P.ContractError, match="^plan line 3: run: name 'a' repeats line 1$"):
        parse_plan("run name=a alg=dpp\nrun name=b\nrun name=a alg=new\n", singlelink)
    with pytest.raises(P.ContractError, match="^plan line 3: slots: repeats line 1$"):
        parse_plan("slots 3\nrun name=a\nslots 4\n", singlelink)
    with pytest.raises(P.ContractError, match="^plan line 1: slots: must be at least 1, got 0$"):
        parse_plan("slots 0\nrun name=a\n", singlelink)
    # a slots line needs exactly one count
    for line, got in (("slots 5 6", 2), ("slots", 0)):
        with pytest.raises(P.ContractError,
                           match=f"^plan line 2: slots: needs one count, got {got} fields$"):
            parse_plan(f"run name=a\n{line}\n", singlelink)
    # each cell's values pass make_config, the one rule of V, x-max and alpha
    for key, message in (("V=0", "V must be positive and finite, got 0.0"),
                         ("V=nan", "V must be positive and finite, got nan"),
                         ("V=1e999", "V must be positive and finite, got inf"),
                         ("x-max=0", "x_max must be positive and finite, got 0.0"),
                         ("x-max=-0.0", "x_max must be positive and finite, got -0.0")):
        with pytest.raises(P.ContractError) as e:
            parse_plan(f"slots 5\nrun name=b\nrun name=a alg=dpp {key}\n", singlelink)
        assert str(e.value) == f"plan line 3: run: {message}"
    for scale in ("0", "1e308"):
        with pytest.raises(P.ContractError) as e:
            parse_plan(f"run name=a alpha-scale={scale}\n", singlelink)
        assert str(e.value) == "plan line 1: run: alpha must be a vector of positive reals"


README_PLAN = ("slots 10000\n"
               "run name=prox alg=new alpha-mode=gap\n"
               "run name=dpp500 alg=dpp V=500\n"
               "run name=dpp10 alg=dpp V=10 x-max=2.0\n")


@pytest.mark.parametrize("text, slots, runs", [
    (README_PLAN, 10000, [P.CompareRun("prox", "new", alpha_mode="utility-gap"),
                          P.CompareRun("dpp500", "dpp", V=500.0),
                          P.CompareRun("dpp10", "dpp", V=10.0, x_max=2.0)]),
    # comments, blank lines and surrounding blanks
    ("# plan\n\n  slots 5  # short\nrun name=a alg=dpp # baseline\n", 5,
     [P.CompareRun("a", "dpp")]),
    # every key, each with its algorithm
    ("run name=a alg=new alpha-mode=bound alpha-scale=2.5\nrun name=b alg=dpp V=3 x-max=1e-3\n",
     10000, [P.CompareRun("a", "new", "queue-bound", 2.5),
             P.CompareRun("b", "dpp", V=3.0, x_max=1e-3)]),
    # a repeated key keeps its last value, which alone must be valid; a value may hold '='
    ("run name=a alg=new name=b=c alg=dpp V=-2 V=1\nslots 4\n", 4,
     [P.CompareRun("b=c", "dpp", V=1.0)]),
    # alg is optional, like --alg of proxbp run
    ("run name=a\nrun name=b alpha-mode=gap\n", 10000,
     [P.CompareRun("a"), P.CompareRun("b", alpha_mode="utility-gap")]),
])
def test_parse_plan_cells(singlelink, text, slots, runs):
    assert parse_plan(text, singlelink) == (slots, runs)


@pytest.mark.parametrize("line", [
    "run alg=new",                        # missing name
    "run",                                # missing name
    "run name=a alg=spicy",               # bad alg
    "run name=a alpha-mode=gap2",         # bad alpha-mode
    "run name=a alg=new turbo=1",         # unknown key
    "run name=a alpha=2",                 # no abbreviations
    "run name=a alpha_mode=gap",          # keys are the flags' spelling
    "run name=a help=1",                  # no help option
    "run name=a alg",                     # token without '='
    "run name=a dpp",                     # token without '='
    "run name=a =5",                      # empty key
    "run name=a V=",                      # empty number
    "run name=a alpha-scale=big",         # not a number
    "slots abc",                          # not a number
    "slots 5 6",                          # one count too many
    "slots 0",                            # no slot to run
    "slots -5",                           # no slot to run
    "walk 3",                             # unknown directive
    "run name=ok alg=dpp",                # name of line 2 again
])
def test_parse_plan_rejects_bad_lines(singlelink, line):
    with pytest.raises(P.ContractError, match="^plan line 3: "):
        parse_plan(f"# plan\nrun name=ok alg=new\n{line}\n", singlelink)


def test_cli_reports_bad_input_cleanly(capsys, tmp_path):
    code = main(["run", "--scenario", SINGLE, "--slots", "0"])
    assert code == 2
    assert "slots" in capsys.readouterr().err
    code = main(["run", "--scenario", "/nonexistent.net", "--slots", "5"])
    assert code == 2
    assert "proxbp:" in capsys.readouterr().err
    for flags, message in (
            (["--k", "0"], "proxbp: k must be a positive integer"),
            (["--k", "2", "--slots", "0"], "proxbp: slots must be a positive integer")):
        code = main(["gen", "chain", *flags, "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(message)
    assert not any(tmp_path.iterdir())


def test_cli_reports_a_numeric_error_cleanly(tmp_path, capsys):
    # 4a = 8e308 overflows: the rate root of the first slot is not finite
    path = tmp_path / "huge.net"
    path.write_text("nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog 1e308\n")
    assert main(["run", "--scenario", str(path), "--slots", "5"]) == 2
    assert capsys.readouterr().err == "proxbp: rate root is not finite\n"


OVERFLOW_BAND = ("8 alpha at every source and 2 (alpha_tail + alpha_head) at every link "
                 "must be finite")


def test_cli_rejects_an_alpha_in_the_overflow_band(tmp_path, capsys):
    # 2 alpha = 1.2e308 is finite but 8 alpha is not: a wlog1p source would
    # stay at x = 0 in every slot, far from its optimum x = 1, and pass
    path = tmp_path / "onelink.net"
    path.write_text("nodes 2\nlink 0 1 1.0\nsession 0 0 1 wlog1p 1.0\n")
    code = main(["run", "--scenario", str(path), "--slots", "2000", "--alpha-scale", "3e307"])
    assert code == 2
    assert capsys.readouterr() == ("", f"proxbp: {OVERFLOW_BAND}\n")


@pytest.mark.parametrize("scenario, scale, message", [
    ("sixnode", "1e308", "alpha must be a vector of positive reals"),  # alpha overflows
    ("sixnode", "1e-320", "projection input must be finite"),  # W[tail] - W[head] overflows
    ("singlelink", "3e307", OVERFLOW_BAND),  # 8 alpha and a link's 2 (alpha + alpha) overflow
])
def test_cli_extreme_alpha_scale_prints_one_line(scenario, scale, message, capsys):
    # the run stops with one proxbp: line on stderr and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--scenario", str(SCENARIO_DIR / f"{scenario}.net"),
                     "--slots", "5", "--alpha-scale", scale])
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"proxbp: {message}\n"


@pytest.mark.parametrize("option, value, owner, other", [
    ("alpha-mode", "gap", "new", "dpp"), ("alpha-scale", "9", "new", "dpp"),
    ("V", "3", "dpp", "new"), ("x-max", "0.1", "dpp", "new"),
])
@pytest.mark.parametrize("command", ("run", "compare"))
def test_cell_rejects_an_option_of_the_other_algorithm(tmp_path, capsys, monkeypatch,
                                                       command, option, value, owner, other):
    def no_run(*args, **kwargs):
        raise AssertionError("run started")

    monkeypatch.setattr(cli, "run", no_run)
    message = f"option {option} is for alg {owner}, not {other}"
    # an omitted alg means new
    for alg in ([other] if other == "dpp" else [other, None]):
        if command == "run":
            alg_flags = ["--alg", alg] if alg else []
            argv = ["run", "--scenario", SINGLE, "--slots", "5", *alg_flags,
                    f"--{option}", value]
            expected = f"proxbp: {message}\n"
        else:
            alg_key = f" alg={alg}" if alg else ""
            plan = tmp_path / "plan.txt"
            plan.write_text(f"slots 5\nrun name=ok alg={owner}\n"
                            f"run name=a{alg_key} {option}={value}\n")
            argv = ["compare", "--scenario", SINGLE, "--spec", str(plan)]
            expected = f"proxbp: plan line 3: run: {message}\n"
        assert main(argv) == 2
        assert capsys.readouterr().err == expected


def test_scenario_without_sessions_is_rejected_at_load(tmp_path, capsys):
    path = tmp_path / "empty.net"
    path.write_text("nodes 2\nlink 0 1 1.0\n")
    plan = tmp_path / "plan.txt"
    plan.write_text("slots 5\nrun name=a alg=new\nrun name=b alg=dpp\n")
    for argv in (["run", "--alg", "new"], ["run", "--alg", "dpp"], ["oracle"],
                 ["compare", "--spec", str(plan)]):
        assert main(argv + ["--scenario", str(path)]) == 2
        assert capsys.readouterr().err == "proxbp: scenario has no session\n"


def test_unroutable_session_is_rejected_at_load(tmp_path, capsys):
    # session 1 may not use link 1, the only way out of node 1
    text = ("nodes 3\nlink 0 1 1.0\nlink 1 2 1.0\n"
            "session 0 0 2 wlog 1.0\nsession 1 0 2 wlog 1.0\nallow 1 0\n")
    path = tmp_path / "stuck.net"
    path.write_text(text)
    for cmd in ("run", "oracle"):
        assert main([cmd, "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("proxbp: session 1 cannot reach its destination 2")
    # the oracle called directly fails at once instead of iterating
    with pytest.raises(P.OracleError, match="session 1 cannot reach") as info:
        P.solve_centralized(P.parse_scenario(text))
    assert info.value.history == ()


def test_counts_past_numpy_dimensions_exit_2(tmp_path, capsys):
    # counts past numpy's largest dimension: without the checks they meet
    # numpy's ValueError, never an allocation the size of the host
    huge = 10**21
    path = tmp_path / "huge.net"
    path.write_text(f"# N too large\nnodes {huge}\nlink 0 1 1.0\nsession 0 0 1 wlog 1.0\n")
    for cmd in ("run", "oracle"):
        assert main([cmd, "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"proxbp: line 2: node_count {huge} needs (N, F) arrays of {8 * huge} bytes "
            f"at F = 1, more than numpy can address\n")
    # sixnode has two sessions: x and seven (T,) columns, 9 float64 a slot
    records = (f"proxbp: slots {huge}: run's per-slot records need {72 * huge} bytes, "
               f"more than numpy can address\n")
    for alg in ("new", "dpp"):
        argv = ["run", "--scenario", SIXNODE, "--alg", alg, "--slots", str(huge)]
        assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == records
    plan = tmp_path / "plan.txt"
    plan.write_text(f"slots {huge}\nrun name=a alg=new\n")
    assert main(["compare", "--scenario", SIXNODE, "--spec", str(plan),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == records
    # a chain of k has 3k + 1 nodes and 3k + 2 links: arrivals, mu and
    # mu_instant take 16 (9k + 5) bytes a slot
    for k, slots, argv in ((1, huge, ["--k", "1", "--slots", str(huge)]),
                           (huge, 6 * huge, ["--k", str(huge)])):
        assert main(["gen", "chain", *argv, "--out-dir", str(tmp_path / "chain")]) == 2
        assert capsys.readouterr().err == (
            f"proxbp: k {k}, slots {slots}: the chain's schedules need "
            f"{16 * slots * (9 * k + 5)} bytes, more than numpy can address\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.net", "plan.txt"]


# edge values a fuzzed token may take: no integer count lies between 100 and
# 10**21, so no mutated scenario or plan allocates more than the host holds
FUZZ_TOKENS = ("0", "-1", "-0.0", "99", "1" + "0" * 21, "1e999", "-1e999", "nan", "inf",
               "1e308", "1e-320", "\u0663", "wlog", "none", "x", "=", "#")
FUZZ_PLAN = ("slots 20\nrun name=prox alg=new alpha-mode=gap alpha-scale=2.0\n"
             "run name=dpp alg=dpp V=50 x-max=2.0\nrun name=base\n")
# the messages of an exit 2 that name no line: a scenario without its nodes
# line or its sessions, a plan without runs, an unroutable session (named),
# and a plan slots count past numpy's limit (named)
WHOLE_FILE = re.compile(r"proxbp: (document has no nodes line|scenario has no session|"
                        r"plan declares no runs|session \d+ cannot reach its destination|"
                        r"slots \d+: run's per-slot records need)")


@st.composite
def _mutated(draw, text):
    """text after one to three mutations: a line dropped, duplicated or
    moved, a token dropped, or a token (or the value of a key=value token)
    replaced by a FUZZ_TOKENS value."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "duplicate", "move", "drop token", "edge token")))
        tokens = lines[i].split()
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            if op == "drop token":
                del tokens[j]
            else:
                key, eq, _ = tokens[j].partition("=")
                keep = key + eq if eq and draw(st.booleans()) else ""
                tokens[j] = keep + draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


SIXNODE_TEXT = Path(SIXNODE).read_text()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenario=st.one_of(st.just(SIXNODE_TEXT), _mutated(SIXNODE_TEXT)),
       plan=st.one_of(st.just(FUZZ_PLAN), _mutated(FUZZ_PLAN)))
def test_mutated_scenario_and_plan_exit_cleanly(tmp_path_factory, scenario, plan):
    # run and compare on a mutated sixnode scenario and three-cell plan: no
    # exception escapes main, and an exit 2, always a file value's fault
    # here, names its line unless its fault is one of the whole file. A plan
    # without a slots line would run the default 10000 slots a cell.
    assume(re.search(r"^ *slots\b", plan, re.MULTILINE))
    out = tmp_path_factory.mktemp("fuzz")
    (out / "s.net").write_text(scenario, encoding="utf-8")
    (out / "plan.txt").write_text(plan, encoding="utf-8")
    for argv in (["run", "--scenario", str(out / "s.net"), "--slots", "20"],
                 ["compare", "--scenario", str(out / "s.net"), "--spec", str(out / "plan.txt")]):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv[0], code)
        if code == 2:
            assert re.match(r"proxbp: (plan )?line \d+: ", err) or WHOLE_FILE.match(err), \
                (argv[0], err, scenario, plan)


@pytest.mark.parametrize("report, message", [
    # a report is read in serialize_solution's order, ustar first
    ("# hand-edited\n\nx 9 1.0\n", "report line 3:"),     # x where ustar comes next
    ("ustar\n", "report line 1:"),                        # scalar without its value
    ("ustar 1.0\nzeta 1.0e\n", "report line 2:"),         # zeta where duality_gap comes next
    ("ustar 1.0\nduality_gap 1.0e\n", "report line 2: bad number in 'duality_gap 1.0e'"),
    ("mu 0 0 0.5\nlambda 6 0 1.0\n", "report line 1: 'mu 0 0 0.5' where ustar comes next"),
    ("ustar 1.0\nduality_gap 0.0\nmax_violation 0.0\nweak_margin 0.0\n", "zeta"),
    # a NaN U* would make every gap NaN, and a negative gap certifies nothing
    ("ustar nan\n", "report line 1: ustar value nan is not finite"),
    ("zeta 1.0\nx 1 inf\n", "report line 1: 'zeta 1.0' where ustar comes next"),
    ("duality_gap -5.0\n", "report line 1: 'duality_gap -5.0' where ustar comes next"),
    ("ustar 1.0\nduality_gap -5.0\n", "report line 2: duality_gap -5.0 is negative"),
])
def test_run_rejects_malformed_oracle_report(tmp_path, capsys, report, message):
    sol_path = tmp_path / "bad.sol"
    sol_path.write_text(report)
    code = main(["run", "--scenario", SIXNODE, "--slots", "5", "--oracle", str(sol_path)])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "slots abc", "run name=a alg=new alpha-scale=big", "run name=a alg=dpp V=lots",
    "run name=a alg=dpp x-max=1,5",
])
def test_compare_rejects_non_numeric_plan_values(tmp_path, capsys, line):
    plan = tmp_path / "plan.txt"
    plan.write_text(f"# plan\n{line}\nrun name=b alg=new\n")
    code = main(["compare", "--scenario", SINGLE, "--spec", str(plan)])
    assert code == 2
    assert "plan line 2:" in capsys.readouterr().err


def test_compare_rejects_a_repeated_run_name(tmp_path, capsys):
    # each name keys a trace and its CSV, so a second cell of a name is an error
    plan = tmp_path / "plan.txt"
    plan.write_text("slots 5\nrun name=a alg=dpp\nrun name=a alg=new\n")
    out = tmp_path / "out"
    code = main(["compare", "--scenario", SINGLE, "--spec", str(plan), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "proxbp: plan line 3: run: name 'a' repeats line 2\n"
    assert not out.exists()


def _main_calls(tmp_path, fresh: bool):
    """(exit code, stdout, stderr, written files) of a sequence of main calls
    in this process, each on a newly built parser when fresh, else all on
    the one cached parser. Output paths are shown as OUT."""
    out = tmp_path / ("fresh" if fresh else "reused")
    out.mkdir()
    plan = out / "plan.txt"
    plan.write_text("slots 20\nrun name=prox alpha-mode=gap\nrun name=base alg=dpp V=20\n")
    calls = [
        ["run", "--scenario", SINGLE, "--slots", "20", "--alg", "dpp", "--V", "3",
         "--x-max", "2", "--out", str(out / "dpp.csv")],
        ["run", "--scenario", SINGLE, "--slots", "20", "--out", str(out / "plain.csv")],
        ["oracle", "--scenario", SINGLE, "--out", str(out / "single.sol")],
        ["compare", "--scenario", SINGLE, "--spec", str(plan), "--out", str(out / "cmp")],
        ["run", "--scenario", SINGLE, "--slots", "20", "--alg", "new", "--V", "3"],  # exit 2
        ["run", "--slots", "20"],  # no --scenario: argparse exits
        ["compare", "--scenario", SINGLE, "--spec", str(plan)],
        ["run", "--scenario", SINGLE, "--slots", "20", "--out", str(out / "plain2.csv")],
    ]
    cli._build_parser.cache_clear()
    cli._plan_cell_parser.cache_clear()
    results = []
    for argv in calls:
        if fresh:
            cli._build_parser.cache_clear()
            cli._plan_cell_parser.cache_clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as e:
                code = ("SystemExit", e.code)
        results.append((code, *(b.getvalue().replace(str(out), "OUT")
                                for b in (stdout, stderr))))
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
             if p.is_file()}
    return results, files


def test_one_parser_serves_every_call(tmp_path):
    reused, reused_files = _main_calls(tmp_path, fresh=False)
    assert cli._build_parser() is cli._build_parser()
    fresh, fresh_files = _main_calls(tmp_path, fresh=True)
    assert [r[0] for r in reused] == [0, 0, 0, 0, 2, ("SystemExit", 2), 0, 0]
    # no option of the dpp call leaks into the plain run after it
    assert reused[1][1].startswith("trace written to OUT/plain.csv\nnew: ")
    assert reused[1][1].replace("plain", "plain2") == reused[7][1]
    assert reused[4][2] == "proxbp: option V is for alg dpp, not new\n"
    assert "the following arguments are required: --scenario" in reused[5][2]
    assert reused == fresh
    assert len(reused_files) == 8 and reused_files == fresh_files


def test_module_entry_point():
    # the child process does not see pytest's pythonpath setting, so put the
    # checkout's src first on its PYTHONPATH
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "proxbp", "run", "--scenario", SINGLE,
         "--slots", "10"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "checks ok" in proc.stdout
