"""CLI stdout against frozen outputs.

Every command of the benchmark's ``c5-paper`` workload runs in process
through ``cli.main``, and its stdout must equal
``perfbench/expected/<id>.out`` byte for byte, with the elapsed times that
``verify`` prints masked.  Nothing under ``perfbench/`` is written.

The formats and commands that workload does not run are frozen under
``tests/expected/<id>.out`` and checked the same way.
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
from helpers import cycle_game, run_cli

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
C4_FILE = "C4.json"  # written per test from helpers.cycle_game(4)


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


FROZEN = (
    ("nash_table", ["nash", "--game", "NC01_C5", "--v0", "2/3", "--v1", "1"]),
    ("nash_json", ["nash", "--game", "NC01_C5", "--v0", "1/6", "--v1", "1", "--format", "json"]),
    ("pareto_csv", ["pareto", "--game", "NC01_C5", "--v0", "1/6", "--v1", "1", "--format", "csv"]),
    ("pareto_json", ["pareto", "--game", C4_FILE, "--format", "json"]),
    ("csw_table", ["csw", "--game", "NC00_C5", "--v0", "1/6", "--v1", "1"]),
    ("csw_pareto", ["csw", "--game", "NC01_C5", "--v0", "2/3", "--v1", "1", "--criterion", "pareto"]),
    ("regimes_table", ["regimes", "--game", "NC00_C5"]),
    ("regimes_ng", ["regimes", "--game", "NC00_C5", "--ng", "3"]),
    ("penalty_table_ng4", ["penalty", "--game", "NC00_C5", "--v0", "2/3", "--v1", "1", "--ng", "4"]),
    (
        "penalty_csv_ng4",
        ["penalty", "--game", "NC000_C5", "--v0", "2/3", "--v1", "1", "--ng", "4", "--format", "csv"],
    ),
    ("penalty_table_ng0", ["penalty", "--game", "NC00_C5", "--v0", "2/3", "--v1", "1", "--ng", "0"]),
    (
        "penalty_csv_ng0",
        ["penalty", "--game", "NC000_C5", "--v0", "2/3", "--v1", "1", "--ng", "0", "--format", "csv"],
    ),
    ("corr_lp", ["corr-lp", "--game", "NC00_C5", "--v0", "2/3", "--v1", "1"]),
    ("quantum_c4", ["quantum", "--game", C4_FILE, "--v0", "1/2", "--v1", "1"]),
)


@pytest.mark.parametrize("cid,args", FROZEN, ids=[cid for cid, _ in FROZEN])
def test_stdout_matches_frozen_output(cid, args, tmp_path):
    game_file = tmp_path / C4_FILE
    game_file.write_text(json.dumps(game_to_document(cycle_game(4), workloads.STANDARD), indent=2) + "\n")
    argv = [str(game_file) if arg == C4_FILE else arg for arg in args]
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == (TESTS / "expected" / f"{cid}.out").read_text(encoding="utf-8")
