"""Self-tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import hashlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import gridgen
import run as bench
import tracing

import proxbp
from proxbp import cli, engine, harness, net

SIXNODE = Path(__file__).resolve().parents[1] / "scenarios" / "sixnode.net"


def test_grid_is_byte_identical_per_seed_and_parses():
    text = gridgen.grid_scenario(10, 20, 7)
    assert text == gridgen.grid_scenario(10, 20, 7)
    assert text != gridgen.grid_scenario(10, 20, 8)
    # pinned, so a change to the generator's stream shows up here
    assert hashlib.sha256(gridgen.grid_scenario(10, 20, 1).encode()).hexdigest()[:16] \
        == "7f120522748c031f"
    sc = net.parse_scenario(text)
    assert (sc.n_nodes, sc.n_links, sc.n_sessions) == (100, 360, 20)
    assert [s.utility.kind for s in sc.sessions[:4]] == ["wlog", "wlog1p", "wlog", "wlog1p"]
    assert all(s.src != s.dst for s in sc.sessions)
    assert all(0.5 <= l.capacity <= 2.0 for l in sc.network.links)


def test_grid_refuses_incidence_over_the_cap():
    assert gridgen.incidence_bytes(150) > 14 * 2**30
    with pytest.raises(ValueError, match="cap"):
        gridgen.grid_scenario(150, 20, 1)
    assert gridgen.incidence_bytes(10) == 100 * 360 * 8


def test_self_time_subtracts_the_union_of_direct_children():
    # 0: root [0, 100]; 1: [10, 40] under 0; 2: [15, 20] under 1;
    # 3: [50, 60] and 4: [55, 70] under 0 overlap; 5: [95, 120] sticks out of 0.
    start = [0, 10, 15, 50, 55, 95]
    end = [100, 40, 20, 60, 70, 120]
    parent = [-1, 0, 1, 0, 0, 0]
    own = tracing.self_times(start, end, parent)
    assert own == [100 - (30 + 20 + 5), 30 - 5, 5, 10, 15, 25]


def _traced_functions():
    return [(ns, attr) for ns in list(sys.modules.values())
            if getattr(ns, "__name__", "").startswith("proxbp")
            for mod, fn in tracing.TRACED
            for attr, value in vars(ns).items()
            if value is getattr(sys.modules[f"proxbp.{mod}"], fn)]


def test_wrappers_are_removed_even_when_the_body_raises():
    before = {(ns.__name__, attr): getattr(ns, attr) for ns, attr in _traced_functions()}
    to_csv = harness.Trace.__dict__["to_csv"]
    # every importing namespace is covered, e.g. residual_matrix in four modules
    names = {k for k in before if k[1] == "residual_matrix"}
    assert {"proxbp.engine", "proxbp.harness", "proxbp.queues", "proxbp.oracle"} <= {n for n, _ in names}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for (name, attr), fn in before.items():
                assert getattr(sys.modules[name], attr) is not fn
            assert harness.Trace.__dict__["to_csv"] is not to_csv
            raise RuntimeError("boom")
    for (name, attr), fn in before.items():
        assert getattr(sys.modules[name], attr) is fn
    assert harness.Trace.__dict__["to_csv"] is to_csv
    assert engine.residual_matrix is net.residual_matrix is proxbp.residual_matrix


def test_traced_run_counts_calls_per_slot(tmp_path):
    tracer = tracing.Tracer()
    slots = 5
    with tracer.installed():
        tracer.current_op = 0
        with redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--scenario", str(SIXNODE), "--slots", str(slots),
                             "--out", str(tmp_path / "t.csv")])
        tracer.current_op = None
        cli.main(["run", "--scenario", str(SIXNODE), "--slots", "1"])  # not recorded
    assert code == 0
    s = tracer.summary()
    assert s["cli.main"]["calls"] == 1
    assert s["engine.link_update"]["calls"] == 8 * slots
    assert s["engine.compute_weights"]["calls"] == 2 * slots
    assert s["net.residual_matrix"]["calls"] == 6 * slots
    assert s["harness.to_csv"]["calls"] == 1
    assert s["rates.solve_rate"]["flagged"] == 0  # sixnode has only wlog sessions
    assert tracer.calls_under("engine.link_update", "engine.slot_update") == 8 * slots
    root = s["cli.main"]
    assert 0 < root["self_ns"] < root["incl_ns"]


def test_every_seed_has_a_recorded_grid_reference():
    for w in bench.WORKLOADS.values():
        for seed in (0, 1, bench.GRID_REFERENCE_SEEDS - 1, bench.GRID_REFERENCE_SEEDS, 987654321):
            assert isinstance(bench.load_reference(w, seed), float)
    grid = bench.WORKLOADS["grid-prox"]
    assert bench.scenario_text(grid, 5) == bench.scenario_text(grid, 5 + bench.GRID_REFERENCE_SEEDS)


def test_an_op_that_writes_no_output_fails_its_check(tmp_path):
    w = bench.WORKLOADS["six-prox"]
    check = bench.Checker(w, sys.modules, net.load_scenario(SIXNODE), bench.load_reference(w, 0))
    assert bench.check_op(check, 0, tmp_path / "missing.csv").startswith("output check raised")
