"""Cold start: a graph command never compiles the oracle side, never runs
`ratpoly`, and loads no module that only `fuzz` or generated code needs.

Each check runs in a fresh interpreter, since this process has long since
loaded every module.  `type(module) is types.ModuleType` reads no attribute
of a lazily registered module, so it loads nothing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import linequiv

from conftest import checkout_env

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
SPANS = ROOT / "bench" / "spans.py"


def run_fresh(code: str, *flags: str) -> dict:
    """Run `code` in a new interpreter, started with `flags`, that imports
    this checkout's package; it must print one JSON document, which is
    returned."""
    done = subprocess.run([sys.executable, *flags, "-c", code], env=checkout_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["reduce", "g1.edges"],
    ["contract", "g4.edges", "--left", "1", "--right", "2"],
    ["diagram", "g4.edges"],
    ["invariants", "g3.dot"],
    ["equiv", "g1.edges", "g2.edges"],
], ids=lambda argv: argv[0])
def test_graph_commands_never_load_the_oracle(argv):
    # -S: a site .pth file may import `random` before the package does
    argv = [str(DATA / a) if "." in a else a for a in argv]
    doc = run_fresh(f"""
import contextlib, io, json, sys, types
from linequiv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r} + ["--json"])
package = {{k: m for k, m in sys.modules.items() if k.split(".")[0] == "linequiv"}}
print(json.dumps({{
    "code": code,
    "executed": sorted(k for k, m in package.items() if type(m) is types.ModuleType),
    "registered": sorted(package),
    "stdlib": sorted({{"dataclasses", "fractions", "pathlib", "random"}} & set(sys.modules)),
}}))
""", "-S")
    assert doc["code"] in (0, 1)
    assert doc["executed"] == ["linequiv", "linequiv.cli", "linequiv.contraction",
                               "linequiv.invariants", "linequiv.parsing", "linequiv.relation"]
    assert {"linequiv.linearize", "linequiv.oracle", "linequiv.ratpoly"} <= set(doc["registered"])
    assert doc["stdlib"] == []


def test_import_registers_every_traced_module():
    # bench/spans.py reads sys.modules["linequiv.<module>"] for each target
    # right after importing the CLI
    doc = run_fresh(f"""
import json, runpy, sys, types
import linequiv.cli
targets = runpy.run_path({str(SPANS)!r})["TARGETS"]
print(json.dumps({{
    "missing": sorted({{m for m, _, _ in targets}} - {{k.removeprefix("linequiv.")
                                                    for k in sys.modules}}),
    "eager": [k for k in ("linequiv.linearize", "linequiv.oracle", "linequiv.ratpoly")
              if type(sys.modules[k]) is types.ModuleType],
}}))
""")
    assert doc == {"missing": [], "eager": []}


def test_every_public_name_resolves():
    doc = run_fresh("""
import json, linequiv
names = {name: getattr(linequiv, name).__module__ for name in linequiv.__all__}
star = {}
exec("from linequiv import *", star)
print(json.dumps({"modules": names, "star": sorted(set(star) - {"__builtins__"}),
                  "all": linequiv.__all__, "linearize": callable(linequiv.linearize),
                  "oracle": linequiv.oracle.__name__}))
""")
    assert doc["star"] == sorted(doc["all"]) == doc["all"]
    assert len(doc["modules"]) == len(doc["all"]) == 39
    assert all(module.startswith("linequiv.") for module in doc["modules"].values())
    assert doc["modules"]["linearize"] == "linequiv.linearize" and doc["linearize"]
    assert doc["oracle"] == "linequiv.oracle"


def test_submodule_import_keeps_the_linearize_function():
    # importing the submodule first must not bind it over the function
    doc = run_fresh("""
import json
from linequiv.linearize import PairMatrices
from linequiv import linearize
print(json.dumps({"callable": callable(linearize), "name": linearize.__name__}))
""")
    assert doc == {"callable": True, "name": "linearize"}
