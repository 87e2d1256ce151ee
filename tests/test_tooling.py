"""The benchmark's tracer (perfbench/tracing.py) wraps library functions that
it names by string, and the kernel timing tool (tools/bench_slot_kernels.py)
calls the slot's and the oracle's kernels. A renamed or deleted function
fails here, in the test suite, and not only when the benchmark or the tool
runs."""
import importlib
import importlib.util
import json
import os
import types
from pathlib import Path
from unittest import mock

import numpy as np

import proxbp as P
from proxbp import harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"proxbp.{module}.{name}" for module, name in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"proxbp.{module}"), name, None))]
    assert missing == []
    # the tracer also wraps Trace.to_csv on its class
    assert callable(vars(harness.Trace).get("to_csv"))


def _kernel_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_slot_kernels", TRACING.parents[1] / "tools" / "bench_slot_kernels.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_kernel_tool_times_two_trees_in_one_process(capsys):
    # one call per kernel on two copies of this tree: a kernel whose
    # signature changes breaks the tool here
    tool = _kernel_tool()
    src = str(TRACING.parents[1] / "src")
    with mock.patch.dict(os.environ):  # the tool sets its BLAS thread counts
        assert tool.main(["--src", f"a={src}", "--src", f"b={src}", "--rounds", "1",
                          "--number", "1", "--repeats", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for tree in ("a", "b"):
        assert set(doc["trees"][tree]) == {*tool.STATES, tool.ORACLE}
        for state in tool.STATES:
            assert set(doc["trees"][tree][state]) == set(tool.KERNELS)
        assert set(doc["trees"][tree][tool.ORACLE]) == set(tool.ORACLE_KERNELS)


def test_kernel_tool_passes_each_tree_its_decision_type(sixnode):
    # this tree's slot_update takes the previous residual and raw (x, mu)
    # arrays, and its compute_weights the residual alone; a parent tree whose
    # slot_update has the older (Q, x_prev, mu_prev, consts) parameters takes
    # raw arrays in both, and one with (Q, y_prev, consts) a DecisionVector,
    # so a parent of either kind can be timed beside this one
    tool = _kernel_tool()
    x, mu = np.array([0.5, 1.0]), np.full((8, 2), 0.25)
    prev = tool._previous(P, sixnode, x, mu)
    assert len(prev) == 3 and prev[1] is x and prev[2] is mu
    assert prev[0].tobytes() == P.residual_matrix(sixnode, x, mu).tobytes()
    (g,) = tool._weight_args(prev)
    assert g is prev[0]
    raw_tree = types.SimpleNamespace(slot_update=lambda Q, x_prev, mu_prev, consts: None)
    raw = tool._previous(raw_tree, sixnode, x, mu)
    assert len(raw) == 2 and raw[0] is x and raw[1] is mu
    assert tool._weight_args(raw) is raw
    old = types.SimpleNamespace(slot_update=lambda Q, y_prev, consts: None,
                                DecisionVector=P.DecisionVector)
    (y,) = tool._previous(old, sixnode, x, mu)
    assert isinstance(y, P.DecisionVector)
    assert y.x.tolist() == [0.5, 1.0] and y.mu.tolist() == mu.tolist()
    assert tool._weight_args((y,)) == (y,)
