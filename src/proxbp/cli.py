"""Command line front end: run, oracle, gen, compare."""
from __future__ import annotations

import argparse
import functools
import os
import sys

from .engine import default_alpha
from .harness import CompareRun, chain_example, compare, make_config, run, save_policy
from .net import (ContractError, DomainError, NumericError, ScenarioFormatError,
                  ScenarioValidationError, _content_lines, load_scenario, save_scenario)
from .oracle import OracleError, load_solution, save_solution, serialize_solution, solve_centralized

MODE_BY_FLAG = {"gap": "utility-gap", "bound": "queue-bound"}
# the CompareRun fields that the cell options set
CELL_FIELDS = ("algorithm", "alpha_mode", "alpha_scale", "V", "x_max")


def _add_cell_options(p: argparse.ArgumentParser) -> None:
    """The options of one run cell, shared by `run` and plan run lines. An
    option left out is absent from the parsed namespace, so CompareRun's
    field defaults are the only defaults."""
    absent = argparse.SUPPRESS
    p.add_argument("--alg", dest="algorithm", choices=("new", "dpp"), default=absent)
    p.add_argument("--alpha-mode", choices=tuple(MODE_BY_FLAG), default=absent,
                   help="proximal weight preset (new only)")
    p.add_argument("--alpha-scale", type=float, default=absent,
                   help="proximal weight multiplier (new only)")
    p.add_argument("--V", type=float, default=absent, help="utility weight (dpp only)")
    p.add_argument("--x-max", type=float, default=absent, help="rate cap (dpp only)")


def _cell(name: str, opts) -> CompareRun:
    """The run cell named name that parsed cell options describe. CompareRun
    raises ContractError on an option of the other algorithm than the cell's."""
    kw = {f: getattr(opts, f) for f in CELL_FIELDS if hasattr(opts, f)}
    if "alpha_mode" in kw:
        kw["alpha_mode"] = MODE_BY_FLAG[kw["alpha_mode"]]
    return CompareRun(name, **kw)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `proxbp` parser, built on first use and reused by every main call:
    parse_args keeps no state between calls."""
    ap = argparse.ArgumentParser(prog="proxbp",
                                 description="proximal backpressure simulator and tools")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="simulate one algorithm on a scenario")
    p.add_argument("--scenario", required=True, help="scenario text file")
    p.add_argument("--slots", type=int, default=10000)
    _add_cell_options(p)
    p.add_argument("--oracle", default=None, help="oracle report file, enables gap columns")
    p.add_argument("--out", default=None, help="write the per-slot trace CSV here")

    p = sub.add_parser("oracle", help="solve a scenario to optimality and certify")
    p.add_argument("--scenario", required=True)
    p.add_argument("--tol", type=float, default=1e-5, help="duality gap target")
    p.add_argument("--alpha-mode", choices=tuple(MODE_BY_FLAG), default="gap",
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


class _PlanCellParser(argparse.ArgumentParser):
    """Parses the tokens of a plan run line; an error raises ContractError."""

    def error(self, message):
        raise ContractError(message)


@functools.cache
def _plan_cell_parser() -> _PlanCellParser:
    """The parser of a plan run line's tokens, built on first use."""
    cells = _PlanCellParser(prog="plan", add_help=False, allow_abbrev=False)
    cells.add_argument("--name", required=True)
    _add_cell_options(cells)
    return cells


def parse_plan(text: str, scenario):
    """Plan grammar: 'slots N' and 'run name=NAME [key=value ...]' lines,
    '#' comments. The keys are the cell flags of `proxbp run` without their
    dashes (alg, alpha-mode, alpha-scale, V, x-max), parsed by the same
    options; every key but name is optional, and one left out takes its
    CompareRun default. alpha-mode and alpha-scale are for alg new (the
    default), V and x-max for dpp, and a key of the other algorithm is an
    error. Each cell's values must give make_config a config on scenario.
    Names must differ, since each names its trace.
    There is at most one slots line, and N is at least 1.
    Returns (slots, [CompareRun, ...]); a bad line raises a ContractError
    that starts 'plan line N:'."""
    cells = _plan_cell_parser()
    slots, slots_line = 10000, None
    runs = []
    line_of = {}  # run name -> the line that gave it
    for lineno, line in _content_lines(text):
        tok = line.split()
        try:
            if tok[0] == "slots":
                if len(tok) != 2:
                    raise ContractError(f"needs one count, got {len(tok) - 1} fields")
                if slots_line:
                    raise ContractError(f"repeats line {slots_line}")
                slots, slots_line = int(tok[1]), lineno
                if slots < 1:
                    raise ContractError(f"must be at least 1, got {slots}")
            elif tok[0] == "run":
                opts = cells.parse_args([f"--{t}" for t in tok[1:]])
                first = line_of.setdefault(opts.name, lineno)
                if first != lineno:
                    raise ContractError(f"name {opts.name!r} repeats line {first}")
                runs.append(_cell(opts.name, opts))
                make_config(scenario, runs[-1])  # the one rule of V, x-max and alpha
            else:
                raise ContractError("unknown directive")
        except (ContractError, ValueError) as e:
            raise ContractError(f"plan line {lineno}: {tok[0]}: {e}") from None
    if not runs:
        raise ContractError("plan declares no runs")
    return slots, runs


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    oracle = load_solution(args.oracle, scenario) if args.oracle else None
    spec = _cell("run", args)
    trace = run(scenario, make_config(scenario, spec), args.slots, oracle=oracle)
    if args.out:
        trace.to_csv(args.out)
        print(f"trace written to {args.out}")
    name, s = spec.algorithm, trace.summary
    print(f"{name}: slots {trace.slots} final_util_avg {float(trace.util_avg[-1])!r} "
          f"final_gap {float(trace.gap[-1])!r} max_abs_q {s['observed_max_abs_q']!r}")
    print(f"{name}: checks {'ok' if s['passed'] else 'FAIL'} "
          f"weight_identity {s['weight_identity_max']!r} drift {s['drift_identity_max']!r} "
          f"feasibility_violations {len(s['feasibility_violations'])} "
          f"transfer_violations {len(s['queue_transfer_violations'])}")
    return 0 if s["passed"] else 1


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
    scenario, policy = chain_example(args.k, slots=args.slots)
    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.join(args.out_dir, f"chain{args.k}")
    save_scenario(scenario, stem + ".net")
    save_policy(policy, stem + ".sched")
    print(f"scenario written to {stem}.net")
    print(f"schedule written to {stem}.sched")
    return 0


def _cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    oracle = load_solution(args.oracle, scenario) if args.oracle else None
    with open(args.spec, "r", encoding="utf-8") as fh:
        slots, runs = parse_plan(fh.read(), scenario)
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
            DomainError, NumericError, OSError) as e:
        print(f"proxbp: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
