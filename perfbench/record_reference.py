#!/usr/bin/env python3
"""Record the reference results that perfbench/run.py checks every op against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Calls the library directly (harness.run, solve_centralized) with the settings
the CLI uses for each workload, and writes perfbench/reference.json. Grid
workloads get one entry per grid seed in 0..GRID_REFERENCE_SEEDS-1 (see run.py).
Re-record only when a change is meant to alter results, and say so.
"""
from __future__ import annotations

import json

import run as bench
from proxbp import (AlgConfig, DppConfig, default_alpha, harness, parse_scenario,
                    solve_centralized)


def final_util_avg(w, seed: int) -> float:
    scenario = parse_scenario(bench.scenario_text(w, seed))
    if "dpp" in w.argv:
        config = DppConfig(V=float(w.argv[w.argv.index("--V") + 1]))
        alg = "dpp"
    else:
        config = AlgConfig(default_alpha(scenario.network, "queue-bound"))
        alg = "new"
    trace = harness.run(scenario, alg, config, w.slots)
    if not trace.summary["passed"]:
        raise SystemExit(f"{w.name} seed {seed}: inline checks failed")
    return float(trace.util_avg[-1])


def main() -> None:
    ref = {}
    for w in bench.WORKLOADS.values():
        if not w.is_run:
            sol = solve_centralized(parse_scenario(bench.scenario_text(w, 0)),
                                    tol=float(w.argv[w.argv.index("--tol") + 1]))
            ref[w.name] = {"U_star": sol.U_star, "duality_gap": sol.duality_gap}
        elif w.scenario == "grid":
            ref[w.name] = {"slots": w.slots, "util_avg": {
                str(s): final_util_avg(w, s) for s in range(bench.GRID_REFERENCE_SEEDS)}}
        else:
            ref[w.name] = {"slots": w.slots, "util_avg": final_util_avg(w, 0)}
        print(f"recorded {w.name}", flush=True)
    path = bench.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
