#!/usr/bin/env python3
"""Per-kernel timings of one proximal slot, of one DPP slot and of the oracle,
for one or more proxbp source trees.

    python3 tools/bench_slot_kernels.py --src before=OLD/src --src after=src --out BENCH.json

Each kernel is timed on two states: the shipped six-node scenario after 3000
slots and the seeded 10x10 grid with 20 sessions (perfbench/gridgen.py, seed 1)
after 300 slots, both with the queue-bound alpha that `proxbp run` uses.
run_slot is harness.run from empty queues for the same number of slots,
divided by that number: the slot with the harness's queue steps, buffers and
per-chunk checks around it. chunk_queues is run's Z work over one chunk,
divided by its slots: ZSteps steps the physical queues Z over the last CHUNKS
slots of the state's run, 1000 on sixnode (the whole of a six-prox run) and 4
on the grid (its run's chunk). repair_feasible repairs the state's last
decision, what the oracle's certificate would peel at the end of a queue-bound
run. The DPP rows read the state of a DPP run (V = 100, as the grid-dpp
benchmark workload runs it) after the same number of slots: dpp_slot_update
decides from its clipped queues Y, step_Y is the slot loop's one-slot step of
Y (which it takes under both algorithms) by the last slot's residual into a
buffer, and run_dpp_slot is run_slot for that run. The oracle rows time
solve_centralized on the six-node scenario at tol 1e-5, as `proxbp oracle`
calls it, and repair_feasible and dual_value at its solution. A kernel's time
is the best of --repeats timeit repeats of --number calls (--number / 20 for
repair_feasible, --number / 40 for solve_centralized and chunk_queues and
--number / 200 for run_slot and run_dpp_slot, which take milliseconds).

All trees are timed in this one process, so no tree's numbers carry an offset
of its own process: each tree's package is imported under its own module name,
and in every round each kernel is timed on every tree in turn, the first tree
rotating between rounds. Each tree reports its best over the rounds and its
per-round values, their spread. rate_phase and project_rows are called as
slot_update calls them: rate_lanes with Scenario.utility_shift and the
SlotConstants rate constants, project_rows with Scenario.forbidden_entries.
slot_update takes the previous decisions as their residual g and raw (x, mu)
arrays, and compute_weights takes g alone, so neither row holds the
residual, which the run loop computes once per slot. decision_faults checks
the decisions of the last 4 slots, one chunk of the grid run. The
oracle rows read the solution's x_star and mu_star.

A tree it times needs these calls, with these signatures: parse_scenario,
default_alpha, AlgConfig, SlotConstants(scenario, config) and its rate
constants and link_denom, slot_update(Q, g, x, mu, consts),
residual_matrix(scenario, x, mu), compute_weights(Q, g, scenario),
step_Z(Z, x, mu, scenario), queues.ZSteps(scenario, slots)(Z, x, mu, out),
step_Y(Y, g, scenario, out=), rates.rate_lanes, project_rows(a, caps,
forbidden_entries), decision_faults(scenario, x, mu), DppConfig(V=),
dpp_slot_update(Y, scenario, config), run(scenario, config, slots),
solve_centralized(scenario, tol=, alpha=), oracle.repair_feasible(scenario,
x, mu) and oracle.dual_value(scenario, lam).

Array placement still shows inside one process: between trees whose code for
a kernel is the same, its rows have differed by up to about 20% depending on
which tree was imported first. So a row that moves by less than that is not
evidence either way; confirm it with a second run that swaps the --src order.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("slot_update", "run_slot", "rate_phase", "project_rows", "step_Z", "chunk_queues",
           "residual_matrix", "compute_weights", "decision_faults", "repair_feasible",
           "dpp_slot_update", "step_Y", "run_dpp_slot")
CHUNK = 4  # slots per decision_faults call, the harness's chunk on the grid
STATES = {"sixnode": 3000, "grid10x10f20": 300}
CHUNKS = {"sixnode": 1000, "grid10x10f20": CHUNK}  # slots of the chunk_queues chunk
ORACLE = "sixnode_oracle"  # the state name of the oracle rows
ORACLE_KERNELS = ("solve_centralized", "repair_feasible", "dual_value")
# kernels timed on --number / this calls
SLOW = {"repair_feasible": 20, "solve_centralized": 40, "chunk_queues": 40, "run_slot": 200,
        "run_dpp_slot": 200}
DPP_V = 100.0  # the V of the DPP rows' run
# one BLAS thread, set before numpy is first imported
THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _import_tree(name: str, src):
    """The proxbp package of the source tree src (the directory holding
    proxbp/), imported as the top-level module name."""
    init = Path(src).resolve() / "proxbp" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _states(P, texts: dict):
    """{state name: (scenario, Q, x, mu, Z, consts, start, chunk, dpp)} for
    the package P and the scenario texts of STATES: the queues after the slot
    counts of STATES and the decisions x, mu of the last slot, what the next
    slot reads; chunk, the (x, mu) stacks of the last CHUNKS slots, and
    start, the physical queues Z before them; dpp, the (config, Y, g) of a
    DPP run after as many slots, its clipped queues before its last slot and
    that slot's residual."""
    from collections import deque

    import numpy as np

    out = {}
    for name, text in texts.items():
        sc = P.parse_scenario(text)
        consts = P.SlotConstants(sc, P.AlgConfig(P.default_alpha(sc.network, "queue-bound")))
        Q = Z = g = np.zeros((sc.n_nodes, sc.n_sessions))  # g of the zero decision
        x, mu = np.zeros(sc.n_sessions), np.zeros((sc.n_links, sc.n_sessions))
        last = deque(maxlen=CHUNKS[name])
        for t in range(STATES[name]):
            if t == STATES[name] - CHUNKS[name]:
                start = Z
            x, mu, _ = P.slot_update(Q, g, x, mu, consts)
            g = P.residual_matrix(sc, x, mu)
            Q = Q + g
            Z, _ = P.step_Z(Z, x, mu, sc)
            last.append((x, mu))
        chunk = tuple(np.stack(c) for c in zip(*last))
        dpp_config = P.DppConfig(V=DPP_V)
        Y_dpp = np.zeros((sc.n_nodes, sc.n_sessions))
        for _ in range(STATES[name]):
            Y_prev = Y_dpp
            g_dpp = P.residual_matrix(sc, *P.dpp_slot_update(Y_dpp, sc, dpp_config))
            Y_dpp = P.step_Y(Y_dpp, g_dpp, sc)
        out[name] = (sc, Q, x, mu, Z, consts, start, chunk, (dpp_config, Y_prev, g_dpp))
    return out


def _chunk_queues(P, sc, Z, chunk):
    """A call that steps the physical queues Z over the slots of chunk
    (x, mu) as run does once per chunk: one ZSteps call."""
    import numpy as np

    x, mu = chunk
    steps = P.queues.ZSteps(sc, len(mu))
    z_out = np.empty((len(mu), sc.n_nodes, sc.n_sessions))
    return lambda: steps(Z, x, mu, z_out)


def _slot_calls(P, slots, sc, Q, x, mu, Z, consts, start, chunk, dpp) -> dict:
    """{kernel: a call with no arguments} for the package P on one state,
    reached after the given number of slots."""
    net = sc.network
    g = P.residual_matrix(sc, x, mu)
    W = P.compute_weights(Q, g, sc)
    a = mu + (W.take(net.tails, axis=0) - W.take(net.heads, axis=0)) / consts.link_denom
    a_src = consts.a_src
    d = W.take(sc.src_entries) - a_src * x
    rates = (sc.utility_shift, sc.utility_weight, d, a_src, consts.ak_src, consts.two_a_src,
             consts.four_a_src)
    faults = tuple(c[-CHUNK:] for c in chunk)
    dpp_config, Y, g_dpp = dpp
    y_out = Y.copy()  # a buffer row, as the loop passes
    return {
        "slot_update": lambda: P.slot_update(Q, g, x, mu, consts),
        "run_slot": lambda: P.run(sc, consts.config, slots),
        "rate_phase": lambda: P.rates.rate_lanes(*rates),
        "project_rows": lambda: P.project_rows(a, net.caps, sc.forbidden_entries),
        "step_Z": lambda: P.step_Z(Z, x, mu, sc),
        "chunk_queues": _chunk_queues(P, sc, start, chunk),
        "residual_matrix": lambda: P.residual_matrix(sc, x, mu),
        "compute_weights": lambda: P.compute_weights(Q, g, sc),
        "decision_faults": lambda: P.decision_faults(sc, *faults),
        "repair_feasible": lambda: P.oracle.repair_feasible(sc, x, mu),
        "dpp_slot_update": lambda: P.dpp_slot_update(Y, sc, dpp_config),
        "step_Y": lambda: P.step_Y(Y, g_dpp, sc, out=y_out),
        "run_dpp_slot": lambda: P.run(sc, dpp_config, slots),
    }


def _oracle_calls(P, text: str) -> dict:
    """{oracle kernel: a call with no arguments} for the package P on the
    scenario text: the solve at tol 1e-5 and the two certificates of its
    solution."""
    sc = P.parse_scenario(text)
    alpha = P.default_alpha(sc.network, "utility-gap")
    sol = P.solve_centralized(sc, tol=1e-5, alpha=alpha)
    return {
        "solve_centralized": lambda: P.solve_centralized(sc, tol=1e-5, alpha=alpha),
        "repair_feasible": lambda: P.oracle.repair_feasible(sc, sol.x_star, sol.mu_star),
        "dual_value": lambda: P.oracle.dual_value(sc, sol.lambda_star),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", default=None,
                    help="NAME=PATH: a proxbp source tree (the directory holding proxbp/) and "
                         "its name in the output; repeatable, default this checkout's src")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--number", type=int, default=200, help="calls per timeit repeat")
    ap.add_argument("--repeats", type=int, default=7, help="timeit repeats per round")
    ap.add_argument("--out", default=None, help="write the JSON result here")
    args = ap.parse_args(argv)
    os.environ.update(THREADS)
    import timeit

    sys.path.insert(0, str(ROOT / "perfbench"))
    import gridgen

    texts = {"sixnode": (ROOT / "scenarios" / "sixnode.net").read_text(encoding="utf-8"),
             "grid10x10f20": gridgen.grid_scenario(10, 20, 1)}
    trees = dict(s.split("=", 1) if "=" in s else (s, s)
                 for s in (args.src or [f"this={ROOT / 'src'}"]))
    names = list(trees)
    calls = {}  # tree -> state -> kernel -> call
    for i, name in enumerate(names):
        P = _import_tree(f"_proxbp_tree{i}", trees[name])
        calls[name] = {state: _slot_calls(P, STATES[state], *case)
                       for state, case in _states(P, texts).items()}
        calls[name][ORACLE] = _oracle_calls(P, texts["sixnode"])
    cases = {**{state: KERNELS for state in STATES}, ORACLE: ORACLE_KERNELS}
    rounds = {name: {state: {k: [] for k in kernels} for state, kernels in cases.items()}
              for name in names}
    for r in range(args.rounds):
        order = names[r % len(names):] + names[:r % len(names)]
        for state, kernels in cases.items():
            for k in kernels:
                number = max(1, args.number // SLOW.get(k, 1))
                # run_slot's and run_dpp_slot's calls run all the slots
                # of their state, chunk_queues's those of its chunk
                per_call = (STATES[state] if k in ("run_slot", "run_dpp_slot") else
                            CHUNKS[state] if k == "chunk_queues" else 1)
                for name in order:
                    best = min(timeit.repeat(calls[name][state][k], number=number,
                                             repeat=args.repeats))
                    rounds[name][state][k].append(best / number / per_call)
    summary = {
        name: {state: {k: {"best_us": round(1e6 * min(per_round), 3),
                           "rounds_us": [round(1e6 * v, 3) for v in per_round]}
                       for k, per_round in kernels.items()}
               for state, kernels in states.items()}
        for name, states in rounds.items()}
    doc = {"command": " ".join([Path(sys.executable).name, "tools/bench_slot_kernels.py",
                                *(argv if argv is not None else sys.argv[1:])]),
           "rounds": args.rounds, "number": args.number, "repeats": args.repeats,
           "states": {**{k: f"{v} slots" for k, v in STATES.items()},
                      ORACLE: "sixnode, tol 1e-5"},
           "trees": summary}
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
