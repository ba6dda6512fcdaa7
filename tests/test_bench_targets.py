"""The benchmark's tracer (`bench/spans.py`) wraps package functions by
module and name; a rename in the package must fail here, in the test suite,
and not only when the traced benchmark runs."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_function_resolves():
    # run_path compiles the file without writing bytecode next to it
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    for module, name, _ in targets:
        fn = getattr(importlib.import_module(f"linequiv.{module}"), name, None)
        assert callable(fn), f"linequiv.{module}.{name}"
