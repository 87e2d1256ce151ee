"""The benchmark's tracer (perfbench/tracing.py) wraps library functions that
it names by string. A renamed or deleted function fails here, in the test
suite, and not only when the benchmark runs with tracing on."""
import importlib
import importlib.util
from pathlib import Path

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
