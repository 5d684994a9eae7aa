"""The runtime needs numpy alone: no analysis path pulls in heavier modules."""

import os
import subprocess
import sys
from pathlib import Path

import grapheq

PROBE = """
import sys
from grapheq.cli import main
code = main(["regimes", "--game", "NC00010_C5"])
heavy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])
print("probe", code, heavy)
"""


def test_regimes_loads_neither_numpy_ma_nor_scipy():
    src = str(Path(grapheq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "probe 0 []"
