"""The runtime needs numpy alone: no analysis path pulls in heavier modules,
and numpy's BLAS runs one thread unless the caller asks for more."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
TESTS = Path(__file__).resolve().parent
SRC = Path(grapheq.__file__).resolve().parent.parent

needs_linux_smp = pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="reads /proc/self and needs two CPUs for OpenBLAS to start a worker",
)


def run_probe(code, **blas_env):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


THREADS = """
import os, re
{first}
before = dict(os.environ)
import grapheq
threads = re.search(r"^Threads:\\s*(\\d+)", open("/proc/self/status").read(), re.M).group(1)
print(threads, dict(os.environ) == before)
"""


@needs_linux_smp
@pytest.mark.parametrize(
    "blas_env, threads",
    [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"), ({"OMP_NUM_THREADS": "2"}, "2")],
    ids=["unset", "openblas-2", "omp-2"],
)
def test_grapheq_loads_numpy_with_one_blas_thread_unless_told(blas_env, threads):
    assert run_probe(THREADS.format(first=""), **blas_env) == f"{threads} True"


@needs_linux_smp
def test_numpy_imported_first_keeps_its_threads():
    threads, untouched = run_probe(THREADS.format(first="import numpy")).split()
    assert int(threads) > 1
    assert untouched == "True"


BLAS_IDLE = """
import os, time
from fractions import Fraction
from grapheq import PayoffParams, best_correlated_sw, builtin_game, ratio_regimes
from grapheq.cli import main
from helpers import cycle_game

def worker_ticks():
    # utime + stime of every thread but the main one, in clock ticks
    ticks = []
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            ticks.append(int(fields[11]) + int(fields[12]))
    return ticks

time.sleep(0.5)  # the worker's start-up spin ends first
before = worker_ticks()
assert main(["verify"]) == 0
best_correlated_sw(builtin_game("NC00_C5"), PayoffParams(Fraction(2, 3), Fraction(1)))
ratio_regimes(cycle_game(7))
print(len(before), sum(worker_ticks()) - sum(before))
"""


@needs_linux_smp
def test_no_analysis_path_wakes_a_blas_worker():
    """No path in ``src/`` may call BLAS, which is why one thread is safe:
    under two BLAS threads the worker must gain no CPU ticks."""
    workers, gained = map(int, run_probe(BLAS_IDLE, OPENBLAS_NUM_THREADS="2").split())
    assert workers == 1
    assert gained == 0


INT64_LIMIT = re.compile(r"2\s*\*\*\s*62|1\s*<<\s*62|4611686018427387904")


def test_int64_limit_is_spelled_only_in_exact_dtype():
    """Every int64-or-Python-integers decision goes through
    ``classical._exact_dtype``: no other line of the package names the limit."""
    stray = []
    for path in sorted(SRC.joinpath("grapheq").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        allowed = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and node.name == "_exact_dtype":
                allowed.update(range(node.lineno, node.end_lineno + 1))
        for number, line in enumerate(text.splitlines(), start=1):
            if INT64_LIMIT.search(line) and number not in allowed:
                stray.append(f"{path.name}:{number}: {line.strip()}")
    assert stray == []


DELETED_DUPLICATES = re.compile(r"def (neighbors|internal_edge_count|from_masks|pack_rows)\b")


def test_neighbour_masks_are_folded_only_in_word():
    """Every generator product goes through ``stabilizer._word``: no other
    line of the package folds neighbour masks, and the set-based and
    matrix-packing duplicates it replaced stay deleted."""
    stray = []
    for path in sorted(SRC.joinpath("grapheq").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        allowed = set()
        if path.name == "stabilizer.py":
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.FunctionDef) and node.name == "_word":
                    allowed.update(range(node.lineno, node.end_lineno + 1))
        for number, line in enumerate(text.splitlines(), start=1):
            if ("^= nbr[" in line and number not in allowed) or DELETED_DUPLICATES.search(line):
                stray.append(f"{path.name}:{number}: {line.strip()}")
    assert stray == []


def test_cli_has_one_json_writer_and_one_game_loader():
    """Every subcommand writes json through ``cli._write_json`` and loads its
    game through ``cli._inputs``: the module spells ``json.dumps`` once and
    calls ``_load_game`` from ``_inputs`` alone."""
    tree = ast.parse(SRC.joinpath("grapheq", "cli.py").read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    body = {n.name: range(n.lineno, n.end_lineno + 1) for n in nodes if isinstance(n, ast.FunctionDef)}
    dumps = [n.lineno for n in nodes if isinstance(n, ast.Attribute) and n.attr == "dumps"]
    loads = [n.lineno for n in nodes if isinstance(n, ast.Name) and n.id == "_load_game"]
    assert len(dumps) == 1 and dumps[0] in body["_write_json"]
    assert len(loads) == 1 and loads[0] in body["_inputs"]
