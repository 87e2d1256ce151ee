"""Shared fixtures. Oracle solves and long simulation runs are session-scoped
so the expensive work happens once per test session. Each run dict also
records the wall-clock seconds the simulations took, because the acceptance
tests hold the runs to time budgets."""
import importlib.util
import os
import time
from pathlib import Path

import pytest

# One BLAS/OpenMP thread per test process unless the caller chose otherwise:
# the default pool oversubscribes a small host when another process runs, and
# the wall-clock budgets of the oracle and acceptance tests assume it does not.
# Must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import proxbp as P

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"


@pytest.fixture(scope="session")
def gridgen():
    """The benchmark's seeded grid generator, loaded read-only so there is one."""
    spec = importlib.util.spec_from_file_location("gridgen", ROOT / "perfbench" / "gridgen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def singlelink():
    return P.load_scenario(SCENARIO_DIR / "singlelink.net")


@pytest.fixture(scope="session")
def sixnode():
    return P.load_scenario(SCENARIO_DIR / "sixnode.net")


@pytest.fixture(scope="session")
def relay():
    # two links in series, the second one the bottleneck
    return P.parse_scenario(
        "nodes 3\n"
        "link 0 1 1.0\n"
        "link 1 2 0.5\n"
        "session 0 0 2 wlog 1.0\n")


@pytest.fixture(scope="session")
def singlelink_sol(singlelink):
    return P.solve_centralized(singlelink, tol=1e-5)


@pytest.fixture(scope="session")
def sixnode_sol(sixnode):
    return P.solve_centralized(sixnode, tol=1e-5)


def _timed_runs(pairs, mode, slots):
    out = {"seconds": 0.0}
    for name, sc, sol in pairs:
        cfg = P.AlgConfig(P.default_alpha(sc.network, mode))
        t0 = time.monotonic()
        trace = P.run(sc, cfg, slots, oracle=sol)
        out["seconds"] += time.monotonic() - t0
        out[name] = (sc, sol, trace)
    return out


@pytest.fixture(scope="session")
def gap_runs(singlelink, sixnode, singlelink_sol, sixnode_sol):
    """10^4 proximal slots on both scenarios with the utility-gap weights."""
    return _timed_runs((("singlelink", singlelink, singlelink_sol),
                        ("sixnode", sixnode, sixnode_sol)),
                       "utility-gap", 10_000)


@pytest.fixture(scope="session")
def soak_runs(singlelink, sixnode, singlelink_sol, sixnode_sol):
    """10^5 proximal slots on both scenarios with the queue-bound weights."""
    return _timed_runs((("singlelink", singlelink, singlelink_sol),
                        ("sixnode", sixnode, sixnode_sol)),
                       "queue-bound", 100_000)


@pytest.fixture(scope="session")
def dpp_runs(sixnode, sixnode_sol):
    """10^4 baseline slots on the six-node scenario at three V settings."""
    out = {}
    for v in (10.0, 100.0, 500.0):
        out[v] = P.run(sixnode, P.DppConfig(V=v), 10_000, oracle=sixnode_sol)
    return out
