"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name; every name it lists must still resolve, or traced runs would fail."""
import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    tracer = runpy.run_path(str(TRACER))  # compiles in memory, writes no bytecode
    for _span, module, attr in tracer["FUNCTIONS"]:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for _span, module, cls, attr in tracer["METHODS"]:
        # the tracer reads the method off the class dict, not through getattr
        assert callable(vars(getattr(importlib.import_module(module), cls))[attr]), (cls, attr)
