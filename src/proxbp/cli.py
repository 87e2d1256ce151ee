"""Command line front end: run, oracle, gen, compare."""
from __future__ import annotations

import argparse
import os
import sys

from .engine import default_alpha
from .harness import CompareRun, chain_example, compare, make_config, run, save_policy
from .net import (ContractError, DomainError, ScenarioFormatError,
                  ScenarioValidationError, load_scenario, save_scenario)
from .oracle import OracleError, load_solution, save_solution, serialize_solution, solve_centralized

MODE_BY_FLAG = {"gap": "utility-gap", "bound": "queue-bound"}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="proxbp",
                                 description="proximal backpressure simulator and tools")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="simulate one algorithm on a scenario")
    p.add_argument("--scenario", required=True, help="scenario text file")
    p.add_argument("--alg", choices=("new", "dpp"), default="new")
    p.add_argument("--slots", type=int, default=10000)
    p.add_argument("--alpha-mode", choices=("gap", "bound"), default="bound",
                   help="proximal weight preset (new only)")
    p.add_argument("--alpha-scale", type=float, default=1.0)
    p.add_argument("--V", type=float, default=500.0, help="utility weight (dpp only)")
    p.add_argument("--x-max", type=float, default=None, help="rate cap (dpp only)")
    p.add_argument("--oracle", default=None, help="oracle report file, enables gap columns")
    p.add_argument("--out", default=None, help="write the per-slot trace CSV here")

    p = sub.add_parser("oracle", help="solve a scenario to optimality and certify")
    p.add_argument("--scenario", required=True)
    p.add_argument("--tol", type=float, default=1e-5, help="duality gap target")
    p.add_argument("--alpha-mode", choices=("gap", "bound"), default="gap",
                   help="weight preset used for the reported curvature constant")
    p.add_argument("--out", default=None, help="write the report here (default stdout)")

    p = sub.add_parser("gen", help="generate a packaged example")
    p.add_argument("kind", choices=("chain",))
    p.add_argument("--k", type=int, required=True, help="chain depth")
    p.add_argument("--slots", type=int, default=None, help="schedule length (default 6k)")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("compare", help="run a plan of algorithm cells side by side")
    p.add_argument("--scenario", required=True)
    p.add_argument("--spec", required=True, help="plan file: slots/run lines")
    p.add_argument("--oracle", default=None, help="oracle report file, enables gap columns")
    p.add_argument("--out", default=None, help="directory for per-run CSVs and report.txt")
    return ap


def _plan_number(convert, text, lineno, key):
    try:
        return convert(text)
    except ValueError:
        raise ContractError(f"plan line {lineno}: {key} must be a number, got {text!r}") from None


def parse_plan(text: str):
    """Plan grammar: 'slots N' and 'run name=.. alg=new|dpp [alpha-mode=gap|bound]
    [alpha-scale=S] [V=V] [x-max=M]' lines, '#' comments."""
    slots = 10000
    runs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "slots" and len(tok) == 2:
            slots = _plan_number(int, tok[1], lineno, "slots")
            continue
        if tok[0] != "run":
            raise ContractError(f"plan line {lineno}: unknown directive {tok[0]!r}")
        kw = {}
        for t in tok[1:]:
            key, eq, val = t.partition("=")
            if not eq:
                raise ContractError(f"plan line {lineno}: expected key=value, got {t!r}")
            kw[key] = val
        try:
            name = kw.pop("name")
            alg = kw.pop("alg")
        except KeyError as e:
            raise ContractError(f"plan line {lineno}: missing {e.args[0]}") from None
        if alg not in ("new", "dpp"):
            raise ContractError(f"plan line {lineno}: bad alg {alg!r}")
        mode_flag = kw.pop("alpha-mode", "bound")
        if mode_flag not in MODE_BY_FLAG:
            raise ContractError(f"plan line {lineno}: bad alpha-mode {mode_flag!r}")
        x_max = kw.pop("x-max", None)
        spec = CompareRun(
            name=name, algorithm=alg, alpha_mode=MODE_BY_FLAG[mode_flag],
            alpha_scale=_plan_number(float, kw.pop("alpha-scale", 1.0), lineno, "alpha-scale"),
            V=_plan_number(float, kw.pop("V", 500.0), lineno, "V"),
            x_max=_plan_number(float, x_max, lineno, "x-max") if x_max is not None else None)
        if kw:
            raise ContractError(f"plan line {lineno}: unknown keys {sorted(kw)}")
        runs.append(spec)
    if not runs:
        raise ContractError("plan declares no runs")
    return slots, runs


def _summary_lines(name, trace):
    s = trace.summary
    yield (f"{name}: slots {trace.slots} final_util_avg {float(trace.util_avg[-1])!r} "
           f"final_gap {float(trace.gap[-1])!r} max_abs_q {s['observed_max_abs_q']!r}")
    yield (f"{name}: checks {'ok' if s['passed'] else 'FAIL'} "
           f"weight_identity {s['weight_identity_max']!r} drift {s['drift_identity_max']!r} "
           f"telescoping {s['telescoping_scaled_max']!r} "
           f"feasibility_violations {len(s['feasibility_violations'])} "
           f"transfer_violations {len(s['queue_transfer_violations'])}")


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    oracle = load_solution(args.oracle, scenario) if args.oracle else None
    spec = CompareRun(name=args.alg, algorithm=args.alg,
                      alpha_mode=MODE_BY_FLAG[args.alpha_mode], alpha_scale=args.alpha_scale,
                      V=args.V, x_max=args.x_max)
    trace = run(scenario, args.alg, make_config(scenario, spec), args.slots, oracle=oracle)
    if args.out:
        trace.to_csv(args.out)
        print(f"trace written to {args.out}")
    for line in _summary_lines(args.alg, trace):
        print(line)
    return 0 if trace.summary["passed"] else 1


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    alpha = default_alpha(scenario.network, MODE_BY_FLAG[args.alpha_mode])
    try:
        sol = solve_centralized(scenario, tol=args.tol, alpha=alpha)
    except OracleError as e:
        print(f"oracle failed: {e}", file=sys.stderr)
        return 1
    if args.out:
        save_solution(sol, scenario, args.out)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(serialize_solution(sol, scenario))
    print(f"U_star {sol.U_star!r} duality_gap {sol.duality_gap!r} "
          f"max_violation {sol.max_violation!r} zeta {sol.zeta!r}")
    return 0


def _cmd_gen(args) -> int:
    if args.k < 1:
        print("gen chain: --k must be positive", file=sys.stderr)
        return 1
    scenario, policy = chain_example(args.k, slots=args.slots)
    os.makedirs(args.out_dir, exist_ok=True)
    net_path = os.path.join(args.out_dir, f"chain{args.k}.net")
    sched_path = os.path.join(args.out_dir, f"chain{args.k}.sched")
    save_scenario(scenario, net_path)
    save_policy(policy, sched_path)
    print(f"scenario written to {net_path}")
    print(f"schedule written to {sched_path}")
    return 0


def _cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    oracle = load_solution(args.oracle, scenario) if args.oracle else None
    with open(args.spec, "r", encoding="utf-8") as fh:
        slots, runs = parse_plan(fh.read())
    traces, report = compare(scenario, runs, slots, oracle=oracle)
    sys.stdout.write(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name, tr in traces.items():
            tr.to_csv(os.path.join(args.out, f"{name}.csv"))
        with open(os.path.join(args.out, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"artifacts written to {args.out}")
    return 0 if all(tr.summary["passed"] for tr in traces.values()) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "oracle": _cmd_oracle, "gen": _cmd_gen,
               "compare": _cmd_compare}[args.cmd]
    try:
        return handler(args)
    except (ContractError, ScenarioFormatError, ScenarioValidationError,
            DomainError, OSError) as e:
        print(f"proxbp: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
