"""CLI stdout against the frozen outputs of the paper reproduction.

Every command of the benchmark's ``c5-paper`` workload runs in process
through ``cli.main``, and its stdout must equal
``perfbench/expected/<id>.out`` byte for byte, with the elapsed times that
``verify`` prints masked.  Nothing under ``perfbench/`` is written.
"""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from grapheq import game_to_document
from grapheq.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()
C5Paper = workloads.C5Paper


@pytest.mark.parametrize("cid,args", C5Paper.commands, ids=[cid for cid, _ in C5Paper.commands])
def test_stdout_matches_reference_output(cid, args, tmp_path):
    game_file = tmp_path / "C6.json"
    doc = game_to_document(C5Paper().build()[0], workloads.STANDARD)
    game_file.write_text(json.dumps(doc, indent=2) + "\n")
    argv = [str(game_file) if arg == C5Paper.game_file else arg for arg in args]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    expected = (PERFBENCH / "expected" / f"{cid}.out").read_bytes()
    assert C5Paper.mask_timings(out.getvalue().encode()) == C5Paper.mask_timings(expected)
