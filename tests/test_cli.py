import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    assert "run prox" in report and "run base" in report
    assert "checks ok" in capsys.readouterr().out


def test_parse_plan_errors():
    with pytest.raises(P.ContractError):
        parse_plan("run alg=new\n")  # missing name
    with pytest.raises(P.ContractError):
        parse_plan("run name=a alg=spicy\n")
    with pytest.raises(P.ContractError):
        parse_plan("run name=a alg=new turbo=1\n")
    with pytest.raises(P.ContractError):
        parse_plan("slots 50\n")  # no runs
    slots, runs = parse_plan("slots 7\nrun name=a alg=new alpha-scale=2.5\n")
    assert slots == 7
    assert runs[0].alpha_scale == 2.5
    assert runs[0].alpha_mode == "queue-bound"


def test_cli_reports_bad_input_cleanly(capsys):
    code = main(["run", "--scenario", SINGLE, "--slots", "0"])
    assert code == 2
    assert "slots" in capsys.readouterr().err
    code = main(["run", "--scenario", "/nonexistent.net", "--slots", "5"])
    assert code == 2
    assert "proxbp:" in capsys.readouterr().err


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


@pytest.mark.parametrize("report, message", [
    ("# hand-edited\n\nx 9 1.0\n", "report line 3:"),     # session index out of range
    ("ustar\n", "report line 1:"),                        # scalar without its value
    ("ustar 1.0\nzeta 1.0e\n", "report line 2:"),         # not a number
    ("mu 0 0 0.5\nlambda 6 0 1.0\n", "report line 2:"),   # node index out of range
    ("ustar 1.0\nduality_gap 0.0\nmax_violation 0.0\nweak_margin 0.0\n", "zeta"),
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
