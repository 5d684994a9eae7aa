"""Tests of the benchmark itself: seeds, checkers, tracer, metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import EXPECTED, WORKLOADS, gq  # noqa: E402


def failed(report):
    return [task for task, problems in report if problems]


@pytest.mark.parametrize("name,seeded", [
    ("c5-paper", False), ("c5-sweep", True), ("cycle-scan", True), ("corr-lp", False),
])
def test_seed_changes_only_the_seeded_workloads(name, seeded):
    workload = WORKLOADS[name]
    assert workload.inputs(5) == workload.inputs(5)
    assert (workload.inputs(1) != workload.inputs(2)) == seeded


def test_ratios_cover_every_stratum():
    ratios = WORKLOADS["c5-sweep"].inputs(3)["ratios"]
    assert len(ratios) == 16 and ratios[-1] == Fraction(2, 3)
    for i, r in enumerate(ratios[:-1]):
        assert Fraction(4 * i, 60) < r <= Fraction(4 * i + 4, 60) and r < 1


def paper_results(workload):
    cli = {cid: (0, (EXPECTED / f"{cid}.out").read_bytes()) for cid, _ in workload.commands}
    return {"cli": cli, "acceptance": {}}


def test_c5_paper_rejects_altered_stdout():
    workload = WORKLOADS["c5-paper"]
    results = paper_results(workload)
    assert not failed(workload.check([], {}, results))
    code, out = results["cli"]["verify"]
    results["cli"]["verify"] = (code, out.replace(b", 0.", b", 9."))  # timings are masked
    assert not failed(workload.check([], {}, results))
    results["cli"]["csw"] = (0, results["cli"]["csw"][1].replace(b"28/39", b"28/38"))
    results["cli"]["kfold"] = (1, results["cli"]["kfold"][1])
    assert failed(workload.check([], {}, results)) == ["cli.csw", "cli.kfold"]


def test_c5_sweep_rejects_a_wrong_csw_and_a_missing_nash_profile():
    workload = WORKLOADS["c5-sweep"]
    games = [gq.builtin_game("NC00_C5")]
    inputs = {"ratios": [Fraction(2, 3), Fraction(1, 4)], "seed": 0}
    results = workload.run(games, inputs, NullTracer(), None)
    assert not failed(workload.check(games, inputs, results))
    results["points"][0]["csw"] += Fraction(1, 30)
    results["points"][1]["nash"] = results["points"][1]["nash"][1:]
    assert failed(workload.check(games, inputs, results)) == ["NC00_C5@2/3", "NC00_C5@1/4"]


def test_cycle_scan_rejects_a_missing_nash_profile():
    workload = WORKLOADS["cycle-scan"]
    games = workload.build()[:1]
    inputs = {"ratios": [Fraction(1, 2)], "seed": 0}
    results = workload.run(games, inputs, NullTracer(), None)
    assert not failed(workload.check(games, inputs, results))
    results["points"][0]["nash"] = results["points"][0]["nash"][:-1]
    assert failed(workload.check(games, inputs, results)) == ["C6@1/2"]


def test_corr_lp_rejects_a_non_obedient_distribution():
    workload = WORKLOADS["corr-lp"]
    game = gq.builtin_game("NC01_C5")
    inputs = {"games": ["NC01_C5"], "ratio": Fraction(2, 3)}
    params = gq.PayoffParams(Fraction(2, 3), Fraction(1))
    value, argmax = gq.best_csw(game, params)
    nash_code = gq.profile_to_code(argmax[0], 5)
    # on NC01 the optimum is a point mass on a best Nash profile
    good = {"NC01_C5": (value, {nash_code: Fraction(1)})}
    assert not failed(workload.check([game], inputs, good))
    nash = {gq.profile_to_code(p, 5) for p in gq.enumerate_nash(game, params)}
    other = next(c for c in range(4**5) if c not in nash)
    bad = {"NC01_C5": (value, {other: Fraction(1)})}
    (task, problems), = workload.check([game], inputs, bad)
    assert any("obedience" in p for p in problems)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    times = tracer.self_times()
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    inner = tracer.spans[1][2] - tracer.spans[1][1]
    assert times["inner"] == inner
    assert times["outer"] == pytest.approx(outer - inner)
    assert tracer.records()[1]["parent"] == 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
