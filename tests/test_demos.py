"""The demos run to completion against this checkout's package."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_worked_examples.py", "02_oracle_crosscheck.py"])
def test_demo_exits_0(demo):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
