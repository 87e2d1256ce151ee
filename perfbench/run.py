#!/usr/bin/env python3
"""proxbp benchmark: one closed-loop client drives the proxbp CLI on one workload.

    python3 perfbench/run.py --workload six-prox --seed 1 --seconds 30 --trace 0

Set-up imports proxbp from the checkout's src/, writes the workload's scenario
from the seed and warms up; it is repeated and its median is `setup_s`. Then
ops run back to back, in this one process, until --seconds have passed. Every
op's output is checked. With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 every other op is traced (see tracing.py)
and the last line holds the per-layer metrics. The line before it records the
environment, sample counts and the unscaled wall-clock figures.

The speed of a core on a shared host drifts by up to 2x within seconds. So a
short fixed probe, which does not touch proxbp, samples the machine's speed
all through every timed interval, and the interval is rescaled to the probe's
nominal speed (see SpeedScale). The end-to-end times are these rescaled
seconds. A traced run takes no probes during its ops.
"""
from __future__ import annotations

import os

# Must precede the first numpy import: one process, one BLAS thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gridgen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 21
GRID_SIDE = 10
GRID_SESSIONS = 20
# Grid workloads use grid number seed % GRID_REFERENCE_SEEDS; reference.json
# holds the expected result of every one of them.
GRID_REFERENCE_SEEDS = 64

CSV_HEADER = ("slot,alg,session,x,xbar,util_inst,util_avg,util_jensen,gap,"
              "maxQ,maxZ,maxY,lyapunov")
# Relative tolerance on the final util_avg against the recorded reference. A
# reordered float sum moves a result by about 1e-16 relative per operation; this
# leaves room for that to build up over a run without accepting a changed
# trajectory.
UTIL_RTOL = 1e-7
ORACLE_GAP_MAX = 1e-5
ORACLE_USTAR_TOL = 1e-5
PROBE_ITERS = 40
PROBE_PERIOD_S = 0.05
PROBE_NOMINAL_S = 0.0012  # typical probe time on the 2-core host it was sized on


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str       # "sixnode" (shipped) or "grid" (generated from the seed)
    argv: tuple         # CLI arguments after the scenario
    slots: int = 0      # simulated slots per op; 0 for the oracle

    @property
    def is_run(self) -> bool:
        return self.slots > 0


WORKLOADS = {w.name: w for w in (
    Workload("six-prox", "sixnode", ("--alg", "new"), slots=1000),
    # 300 slots: the queues fill over the first ~100, and the projection budget
    # binds (the sort path) in about 6-8% of the link updates of a run.
    Workload("grid-prox", "grid", ("--alg", "new"), slots=300),
    Workload("grid-dpp", "grid", ("--alg", "dpp", "--V", "100"), slots=300),
    Workload("oracle-six", "sixnode", ("--tol", "1e-5")),
)}


def scenario_text(w: Workload, seed: int) -> str:
    if w.scenario == "grid":
        return gridgen.grid_scenario(GRID_SIDE, GRID_SESSIONS, seed % GRID_REFERENCE_SEEDS)
    return (ROOT / "scenarios" / "sixnode.net").read_text(encoding="utf-8")


def op_argv(w: Workload, net_path: Path, out_path: Path) -> list:
    if w.is_run:
        return ["run", "--scenario", str(net_path), "--slots", str(w.slots),
                *w.argv, "--out", str(out_path)]
    return ["oracle", "--scenario", str(net_path), *w.argv, "--out", str(out_path)]


def import_proxbp():
    """Import proxbp and its CLI afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "proxbp" or m.startswith("proxbp.")]:
        del sys.modules[name]
    importlib.import_module("proxbp.cli")
    return sys.modules


def set_up(w: Workload, seed: int):
    """One set-up: import proxbp, write and parse the scenario, warm up with a
    two-slot run. Returns (modules, scenario, scenario path)."""
    mods = import_proxbp()
    net_path = WORK / f"{w.name}.net"
    net_path.write_text(scenario_text(w, seed), encoding="utf-8")
    scenario = mods["proxbp.net"].load_scenario(net_path)
    warm = Workload(w.name, w.scenario, w.argv if w.is_run else (), slots=2)
    with contextlib.redirect_stdout(io.StringIO()):
        code = mods["proxbp.cli"].main(op_argv(warm, net_path, WORK / "warmup.csv"))
    if code != 0:
        raise RuntimeError(f"warm-up run exited {code}")
    return mods, scenario, net_path


def load_reference(w: Workload, seed: int) -> float:
    """The recorded reference for this workload and seed."""
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[w.name]
    if w.is_run and ref["slots"] != w.slots:
        raise RuntimeError(f"reference for {w.name} was recorded at {ref['slots']} slots, "
                           f"the workload runs {w.slots}")
    if w.scenario == "grid":
        return ref["util_avg"][str(seed % GRID_REFERENCE_SEEDS)]
    return ref["U_star"] if not w.is_run else ref["util_avg"]


def utility_average(scenario, x) -> float:
    """Mean over slots of the total utility, evaluated here, not by proxbp."""
    total = 0.0
    for row in x:
        for s, v in zip(scenario.sessions, row):
            w = s.utility.weight
            total += w * (math.log(v) if s.utility.kind == "wlog" else math.log1p(v))
    return total / len(x)


class Checker:
    """Checks one op's output against the recorded reference."""

    def __init__(self, w: Workload, mods, scenario, reference: float):
        self.w = w
        self.mods = mods
        self.scenario = scenario
        self.reference = reference

    def __call__(self, code, out_path: Path) -> str:
        """Returns '' when the output is right, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        value = self._run_value(out_path) if self.w.is_run else self._oracle_value(out_path)
        if isinstance(value, str):
            return value
        tol = (UTIL_RTOL * max(1.0, abs(self.reference)) if self.w.is_run
               else ORACLE_USTAR_TOL)
        if abs(value - self.reference) > tol:
            return f"result {value!r} differs from reference {self.reference!r}"
        return ""

    def _run_value(self, out_path: Path):
        n_f = self.scenario.n_sessions
        with open(out_path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != CSV_HEADER:
                return "CSV header differs"
            rows = sum(1 for _ in fh)
        if rows != self.w.slots * n_f:
            return f"CSV has {rows} rows, expected {self.w.slots * n_f}"
        tr = self.mods["proxbp.harness"].trace_from_csv(str(out_path))
        if tr.x.shape != (self.w.slots, n_f):
            return f"CSV reads back as shape {tr.x.shape}"
        final = float(tr.util_avg[-1])
        own = utility_average(self.scenario, tr.x)
        if abs(final - own) > 1e-9 * max(1.0, abs(own)):
            return f"util_avg {final!r} disagrees with the x columns ({own!r})"
        return final

    def _oracle_value(self, out_path: Path):
        sol = self.mods["proxbp.oracle"].load_solution(str(out_path), self.scenario)
        if not (0.0 <= sol.duality_gap <= ORACLE_GAP_MAX):
            return f"duality gap {sol.duality_gap!r} outside [0, {ORACLE_GAP_MAX}]"
        return float(sol.U_star)


def _scalar_step(x, y, c):
    return max(0.0, min(c, x - 0.5 * y)) if x > y else x * y / (1.0 + c)


def probe() -> float:
    """Wall seconds of a fixed mix of small numpy calls and scalar Python
    function calls, the two kinds of work proxbp spends its time on. It touches
    no proxbp code, so its duration changes only with the speed of the machine."""
    t0 = time.perf_counter()
    a = np.arange(8.0)
    acc = 0.0
    for _ in range(PROBE_ITERS):
        b = np.maximum(a - 0.5, 0.0)
        acc += float(np.cumsum(b[np.argsort(-b, kind="stable")])[-1])
    vals = (0.5, 1.5, 2.5, 3.5)
    for i in range(25 * PROBE_ITERS):
        acc += _scalar_step(vals[i & 3], 1.25, acc * 1e-3)
    return time.perf_counter() - t0


class SpeedScale:
    """Times intervals and rescales them to nominal machine speed.

    While an interval runs, a timer signal runs `probe()` every PROBE_PERIOD_S,
    so the machine's speed is sampled all through it. The interval minus the
    probes' own time is multiplied by PROBE_NOMINAL_S over their mean time.
    """

    def __init__(self):
        probe()  # the first call pays one-off numpy costs
        self.samples = []
        self.probes = []  # every sample of the run, for the info line

    def _tick(self, signum, frame):
        self.samples.append(probe())

    @contextlib.contextmanager
    def timed(self, out: list, sample: bool = True):
        """Appends (wall seconds, rescaled seconds) of the block to out. With
        sample=False the block runs undisturbed and is not rescaled."""
        if not sample:
            t0 = time.perf_counter()
            yield
            wall = time.perf_counter() - t0
            out.append((wall, wall))
            return
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self.samples)
        if not self.samples:  # shorter than one period: sample right after
            self.samples.append(probe())
        self.probes.extend(self.samples)
        out.append((wall, wall * PROBE_NOMINAL_S / statistics.fmean(self.samples)))


def run_op(mods, argv, tracer=None, op_id=None):
    """One op through proxbp.cli.main. Returns its exit code, or None if it
    raised."""
    if tracer is not None:
        tracer.current_op = op_id
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return mods["proxbp.cli"].main(argv)
    except Exception:  # an op that raises is a failed op, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        if tracer is not None:
            tracer.current_op = None


def check_op(check, code, out_path) -> str:
    try:
        reason = check(code, out_path) if code is not None else "raised"
    except Exception as e:  # unreadable output
        reason = f"output check raised {e!r}"
    if reason:
        print(f"op failed: {reason}", file=sys.stderr)
    return reason


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return {"pct": round(100.0 * (k + 1) / n, 1), "s": sorted(samples)[k], "n": n}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "proxbp").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, load_before) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


def per_layer(tracer, traced_times, untraced_times, slots, ops, scenario, csv_bytes) -> dict:
    s = tracer.summary()
    zero = {"calls": 0, "incl_ns": 0, "self_ns": 0, "flagged": 0}

    def get(name, key):
        return s.get(name, zero)[key]

    def per_slot(value):
        return value / slots if slots else 0.0

    def sec(name, key="incl_ns"):
        return get(name, key) / 1e9

    def frac(name):
        calls = get(name, "calls")
        return get(name, "flagged") / calls if calls else 0.0

    op_ns = get("cli.main", "incl_ns")
    parses = get("net.parse_scenario", "calls")
    m = {
        "engine.slot_update.self_s_per_slot": (per_slot(sec("engine.slot_update", "self_ns")), "s/slot"),
        "engine.link_update.calls_per_slot": (per_slot(get("engine.link_update", "calls")), "count/slot"),
        "engine.link_update.self_s_per_slot": (per_slot(sec("engine.link_update", "self_ns")), "s/slot"),
        "engine.link_update.op_share": (get("engine.link_update", "incl_ns") / op_ns, "ratio"),
        "engine.compute_weights.calls_per_slot": (per_slot(get("engine.compute_weights", "calls")), "count/slot"),
        "projection.project_sorted.calls_per_slot": (per_slot(get("projection.project_sorted", "calls")), "count/slot"),
        "projection.project_sorted.s_per_slot": (per_slot(sec("projection.project_sorted")), "s/slot"),
        "projection.tight_frac": (frac("projection.project_sorted"), "ratio"),
        "rates.solve_rate.calls_per_slot": (per_slot(get("rates.solve_rate", "calls")), "count/slot"),
        "rates.solve_rate.s_per_slot": (per_slot(sec("rates.solve_rate")), "s/slot"),
        "rates.bisect_frac": (frac("rates.solve_rate"), "ratio"),
        "queues.step_Z.s_per_slot": (per_slot(sec("queues.step_Z")), "s/slot"),
        "queues.step_Y.s_per_slot": (per_slot(sec("queues.step_Y")), "s/slot"),
        "queues.step_Q.s_per_slot": (per_slot(sec("queues.step_Q")), "s/slot"),
        "dpp.dpp_slot_update.s_per_slot": (per_slot(sec("dpp.dpp_slot_update")), "s/slot"),
        "dpp.dpp_slot_update.op_share": (get("dpp.dpp_slot_update", "incl_ns") / op_ns, "ratio"),
        "net.residual_matrix.calls_per_slot": (per_slot(get("net.residual_matrix", "calls")), "count/slot"),
        "net.residual_matrix.s_per_slot": (per_slot(sec("net.residual_matrix")), "s/slot"),
        "net.validate_decision.s_per_slot": (per_slot(sec("net.validate_decision")), "s/slot"),
        "net.total_utility.s_per_slot": (per_slot(sec("net.total_utility")), "s/slot"),
        "net.parse_scenario_s": (sec("net.parse_scenario") / parses if parses else 0.0, "s"),
        "net.incidence_bytes": (scenario.n_nodes * scenario.n_links * 8, "B"),
        "harness.run.self_s_per_slot": (per_slot(sec("harness.run", "self_ns")), "s/slot"),
        "harness.to_csv.s_per_slot": (per_slot(sec(tracing.TO_CSV)), "s/slot"),
        "harness.to_csv.bytes_per_slot": (per_slot(csv_bytes), "B/slot"),
        "cli.self_s": (sec("cli.main", "self_ns") / ops, "s"),
        "oracle.solve_centralized.self_s": (sec("oracle.solve_centralized", "self_ns") / ops, "s"),
        "oracle.outer_iters": (get("oracle.dual_value", "calls") / ops, "count"),
        "oracle.residual_calls": (tracer.calls_under("net.residual_matrix", "oracle.solve_centralized") / ops, "count"),
        "oracle.dual_value_s": (sec("oracle.dual_value") / ops, "s"),
        "oracle.repair_feasible_s": (sec("oracle.repair_feasible") / ops, "s"),
        "oracle.repair_feasible.calls": (get("oracle.repair_feasible", "calls") / ops, "count"),
        "oracle.tighten_to_equality_s": (sec("oracle.tighten_to_equality") / ops, "s"),
        "trace.overhead_frac": (statistics.median(traced_times) / statistics.median(untraced_times) - 1.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    if not (SRC / "proxbp" / "cli.py").is_file() or not (ROOT / "scenarios" / "sixnode.net").is_file():
        print(f"perfbench: no proxbp checkout at {ROOT} (need src/proxbp and scenarios/); "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_before = list(os.getloadavg())
    WORK.mkdir(exist_ok=True)

    scale = SpeedScale()
    setup = []  # (wall, rescaled) seconds per set-up
    for _ in range(SETUP_REPEATS):
        with scale.timed(setup):
            mods, scenario, net_path = set_up(w, args.seed)

    out_path = WORK / (f"{w.name}.csv" if w.is_run else f"{w.name}.sol")
    check = Checker(w, mods, scenario, load_reference(w, args.seed))
    argv_op = op_argv(w, net_path, out_path)
    tracer = tracing.Tracer() if args.trace else None
    # (wall, rescaled) seconds per op. A traced run times its ops without speed
    # probes, so that they neither land in spans nor skew the tracing overhead.
    ops, traced_ops = [], []
    failed = 0
    csv_bytes = 0
    start = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        while True:
            traced = tracer is not None and len(ops) > len(traced_ops)
            out_path.unlink(missing_ok=True)  # an op that writes nothing must fail
            with scale.timed(traced_ops if traced else ops, sample=tracer is None):
                code = run_op(mods, argv_op, tracer if traced else None,
                              len(ops) + len(traced_ops))
            reason = check_op(check, code, out_path)
            failed += bool(reason)
            if traced and w.is_run and not reason:
                csv_bytes += out_path.stat().st_size
            # stop before an op that would end past --seconds, going by the last one
            last = (traced_ops if traced else ops)[-1][0]
            if (time.perf_counter() - start + last >= args.seconds
                    and (not tracer or traced_ops)):
                break

    wall = [o[0] for o in ops]
    rescaled = [o[1] for o in ops]
    work = w.slots * len(ops) if w.is_run else len(ops)
    info = {
        "workload": w.name, "trace": args.trace, "slots_per_op": w.slots,
        "ops": {"untraced": len(ops), "traced": len(traced_ops)},
        "setup_samples": len(setup),
        "grid_seed": args.seed % GRID_REFERENCE_SEEDS if w.scenario == "grid" else None,
        "op_s_tail": tail(rescaled),
        "wall": {"setup_s": statistics.median(s[0] for s in setup),
                 "op_s_p50": statistics.median(wall),
                 "work_per_s": work / sum(wall),
                 "op_s_tail": tail(wall)},
        "probe_s": {"nominal": PROBE_NOMINAL_S, "samples": len(scale.probes),
                    "median": statistics.median(scale.probes),
                    "min": min(scale.probes), "max": max(scale.probes)},
        "env": environment(args.seed, load_before),
    }
    if tracer:
        n = len(traced_ops)
        metrics = per_layer(tracer, [o[0] for o in traced_ops], wall, w.slots * n, n,
                            scenario, csv_bytes)
        spans = WORK / f"spans-{w.name}-seed{args.seed}.csv.gz"
        tracer.write(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s[1] for s in setup), "unit": "s"},
            "op_s_p50": {"value": statistics.median(rescaled), "unit": "s"},
            "work_per_s": {"value": work / sum(rescaled), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
        }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops) + len(traced_ops),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
