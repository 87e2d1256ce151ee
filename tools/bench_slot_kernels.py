#!/usr/bin/env python3
"""Per-kernel timings of one proximal slot, for one or more proxbp source trees.

    python3 tools/bench_slot_kernels.py --src before=OLD/src --src after=src --out BENCH.json

Each kernel is timed on two states: the shipped six-node scenario after 3000
slots and the seeded 10x10 grid with 20 sessions (perfbench/gridgen.py, seed 1)
after 300 slots, both with the queue-bound alpha that `proxbp run` uses. A
kernel's time is the best of --repeats timeit repeats of --number calls. The
trees are timed in rounds, each tree in its own subprocess and the first tree
rotating between rounds, and each tree reports its best over the rounds and
its per-round values, their spread. rate_phase is the rate solve as the
tree's slot_update calls it; decision_faults checks the decisions of the last
4 slots, one audit chunk of the grid run; every other kernel is called
through a name that older trees export too.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("slot_update", "rate_phase", "solve_rates", "project_rows", "step_Z",
           "residual_matrix", "compute_weights", "decision_faults")
CHUNK = 4  # slots per decision_faults call, the harness's chunk on the grid
STATES = {"sixnode": 3000, "grid10x10f20": 300}


def _states():
    """{state name: (scenario, Q, y, Z, consts, chunk)}: the queues after the slot
    counts of STATES and the decisions of the last slot, what the next slot
    reads, and chunk, the (x, mu) stacks of the last CHUNK slots."""
    import numpy as np

    import proxbp as P
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gridgen

    scenarios = {"sixnode": P.load_scenario(ROOT / "scenarios" / "sixnode.net"),
                 "grid10x10f20": P.parse_scenario(gridgen.grid_scenario(10, 20, 1))}
    out = {}
    for name, sc in scenarios.items():
        consts = P.SlotConstants(sc, P.AlgConfig(P.default_alpha(sc.network, "queue-bound")))
        Q = np.zeros((sc.n_nodes, sc.n_sessions))
        Z = Q
        y = P.zero_decision(sc)
        last = []
        for _ in range(STATES[name]):
            y, _ = P.slot_update(Q, y, consts)
            Q = Q + P.residual_matrix(sc, y.x, y.mu)
            Z, _ = P.step_Z(Z, y.x, y.mu, sc)
            last = (last + [y])[-CHUNK:]
        chunk = (np.stack([d.x for d in last]), np.stack([d.mu for d in last]))
        out[name] = (sc, Q, y, Z, consts, chunk)
    return out


def _slot_calls(sc, Q, y, Z, consts, chunk) -> dict:
    """{kernel: a call with no arguments}. The rate phase and project_rows are
    called as the tree's slot_update calls them: a tree whose SlotConstants
    has rate_k calls rate_root with the run's constants and passes its
    allow_mask and ranks to project_rows; an older one calls solve_rates and
    passes the scenario's mask."""
    import proxbp as P
    from proxbp import rates
    from proxbp.engine import compute_weights
    from proxbp.queues import step_Z

    net = sc.network
    W = compute_weights(Q, y, sc)
    a = y.mu + (W.take(net.tails, axis=0) - W.take(net.heads, axis=0)) / consts.link_denom
    pressure = W.take(sc.src_entries)
    a_src = 2.0 * consts.config.alpha[sc.src]
    if hasattr(consts, "rate_k"):
        d = pressure - a_src * y.x
        rate_phase = lambda: rates.rate_root(consts.rate_k, sc.utility_weight, d, a_src,
                                             consts.two_a_src, consts.four_a_src)
        project = lambda: P.project_rows(a, net.caps, consts.allow_mask, consts.ranks)
    else:
        rate_phase = lambda: rates.solve_rates(sc.is_wlog, sc.utility_weight,
                                               pressure, y.x, a_src)
        project = lambda: P.project_rows(a, net.caps, sc.allow_mask)
    return {
        "slot_update": lambda: P.slot_update(Q, y, consts),
        "rate_phase": rate_phase,
        "solve_rates": lambda: rates.solve_rates(sc.is_wlog, sc.utility_weight, pressure, y.x,
                                                 a_src),
        "project_rows": project,
        "step_Z": lambda: step_Z(Z, y.x, y.mu, sc),
        "residual_matrix": lambda: P.residual_matrix(sc, y.x, y.mu),
        "compute_weights": lambda: compute_weights(Q, y, sc),
        "decision_faults": lambda: P.decision_faults(sc, *chunk),
    }


def _time_tree(number: int, repeats: int) -> dict:
    """{state: {kernel: best seconds per call}} for the proxbp on sys.path."""
    import timeit

    result = {}
    for name, state in _states().items():
        calls = _slot_calls(*state)
        result[name] = {k: min(timeit.repeat(calls[k], number=number, repeat=repeats)) / number
                        for k in KERNELS}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", default=None,
                    help="NAME=PATH: a proxbp source tree (the directory holding proxbp/) and "
                         "its name in the output; repeatable, default this checkout's src")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--number", type=int, default=200, help="calls per timeit repeat")
    ap.add_argument("--repeats", type=int, default=7, help="timeit repeats per round")
    ap.add_argument("--out", default=None, help="write the JSON result here")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_time_tree(args.number, args.repeats)))
        return 0
    trees = dict(s.split("=", 1) if "=" in s else (s, s)
                 for s in (args.src or [f"this={ROOT / 'src'}"]))
    names = list(trees)
    rounds = {name: [] for name in names}
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    for r in range(args.rounds):
        for name in names[r % len(names):] + names[:r % len(names)]:
            env = dict(os.environ, PYTHONPATH=str(Path(trees[name]).resolve()), **threads)
            out = subprocess.run([sys.executable, __file__, "--child", "--number",
                                  str(args.number), "--repeats", str(args.repeats)],
                                 env=env, check=True, capture_output=True, text=True).stdout
            rounds[name].append(json.loads(out))
    summary = {
        name: {state: {k: {"best_us": round(1e6 * min(r[state][k] for r in per_round), 3),
                           "rounds_us": [round(1e6 * r[state][k], 3) for r in per_round]}
                       for k in KERNELS}
               for state in STATES}
        for name, per_round in rounds.items()}
    doc = {"command": " ".join([Path(sys.executable).name, "tools/bench_slot_kernels.py",
                                *(argv if argv is not None else sys.argv[1:])]),
           "rounds": args.rounds, "number": args.number, "repeats": args.repeats,
           "states": {k: f"{v} slots" for k, v in STATES.items()}, "trees": summary}
    text = json.dumps(doc, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
