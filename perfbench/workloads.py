"""The four benchmark workloads: inputs, one pass of work, output checks.

Each workload has
  * ``inputs(seed)``: the generated inputs, a plain dict; the seed only ever
    reaches the program through these values;
  * ``build()``: the GameSpecs the workload needs (timed as set-up);
  * ``run(games, inputs, tracer, cli_env)``: one pass over the task list,
    with a tracer span around every call into a grapheq layer;
  * ``check(games, inputs, results)``: one ``(task, problems)`` pair per
    task, using oracles independent of the code under test;
  * ``counts(games, inputs, results)``: the per-layer work counters of a
    pass.

Span names are the per-layer metric names without their ``_s`` suffix.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import grapheq as gq  # noqa: E402

TWO_THIRDS = Fraction(2, 3)
STANDARD = gq.PayoffParams(TWO_THIRDS, Fraction(1))

# frozen reference values from the paper reproduction
QUANTUM_BOUNDS = {
    "NC00_C5": Fraction(1, 2),
    "NC01_C5": Fraction(1, 3),
    "NC000_C5": Fraction(3, 7),
    "NC00010_C5": Fraction(5, 13),
}
CSW_AT_TWO_THIRDS = {
    "NC00_C5": Fraction(23, 30),
    "NC01_C5": Fraction(7, 9),
    "NC000_C5": Fraction(28, 39),
    "NC00010_C5": Fraction(281, 390),
}
NC01_PENALTY_PAIR = [(0, 0, 0, 0, 0), (3, 3, 3, 3, 3)]
CORRELATED_AT_TWO_THIRDS = {"NC00_C5": Fraction(97, 126), "NC01_C5": Fraction(7, 9)}

LOCAL_FUNCTIONS = 4  # constant 0, constant 1, identity, negation


def cycle_game(n: int) -> gq.GameSpec:
    """C_n built as the builtins are: the all-ones question plus one
    single-generator question per player, each of weight 1/(n+1)."""
    graph = gq.Graph.cycle(n)
    weight = Fraction(1, n + 1)
    questions = []
    for qid, gen in [("Ta", frozenset(range(n)))] + [(f"T{i}", frozenset({i})) for i in range(n)]:
        der = gq.derive_question(graph, gen)
        bits = tuple(1 if j in gen else 0 for j in range(n))
        questions.append(gq.QuestionSpec(qid, bits, der.involved, der.parity, weight, gen))
    return gq.GameSpec(f"C{n}", graph, tuple(questions))


def stratified_ratios(rng: random.Random, count: int, denominator: int = 60) -> list[Fraction]:
    """One ratio p/denominator drawn from each of ``count`` equal strata of
    (0, 1), so every seed covers each equilibrium regime about equally and
    the work in a pass does not depend on the draw.

    v0/v1 = 1 is left out: with no conflict of interest the answers tie,
    the C8 Nash set grows elevenfold (6400 profiles against 580 at 59/60),
    and one seed in ten would measure a different workload."""
    width = denominator // count
    return [
        Fraction(rng.randint(i * width + 1, min((i + 1) * width, denominator - 1)), denominator)
        for i in range(count)
    ]


def table_bytes(table: gq.PayoffTable) -> int:
    arrays = (table.win0, table.win1, table.lose0, table.lose1, table.win_bits, table.pwin_num)
    return sum(a.nbytes for a in arrays)


# ---------------------------------------------------------------------------
# independent oracles: exact rescoring with ``evaluate``, one profile at a time


def deviations(profile):
    """(player, deviating profile) for every unilateral change of function."""
    for j, f in enumerate(profile):
        for g in range(LOCAL_FUNCTIONS):
            if g != f:
                yield j, profile[:j] + (g,) + profile[j + 1 :]


def improving_deviation(game, profile, params):
    """A unilateral deviation that strictly gains, or None if Nash."""
    base = gq.evaluate(game, profile).utilities(params)
    for j, dev in deviations(profile):
        if gq.evaluate(game, dev).utilities(params)[j] > base[j]:
            return j, dev
    return None


def harmless_improvement(game, profile, params):
    """An improving deviation that hurts nobody else, or None if the profile
    meets the (unilateral) Pareto criterion."""
    base = gq.evaluate(game, profile).utilities(params)
    for j, dev in deviations(profile):
        utils = gq.evaluate(game, dev).utilities(params)
        if utils[j] > base[j] and all(utils[k] >= base[k] for k in range(len(base)) if k != j):
            return j, dev
    return None


def regime_prediction(intervals, n: int, ratio: Fraction) -> list[tuple[int, ...]]:
    return sorted(gq.code_to_profile(c, n) for c, (lo, hi) in intervals.items() if lo <= ratio <= hi)


def _sample(rng: random.Random, items, k: int):
    items = list(items)
    return rng.sample(items, min(k, len(items)))


# ---------------------------------------------------------------------------
# c5-paper


class C5Paper:
    """The paper reproduction as a user runs it: one fresh ``grapheq``
    process per command, then every acceptance check in process."""

    name = "c5-paper"
    setup_import = "grapheq.cli"
    game_file = ".perfbench/C6.json"
    commands = (
        ("verify", ["verify"]),
        ("nash", ["nash", "--game", "NC00_C5", "--v0", "2/3", "--v1", "1", "--format", "csv"]),
        ("pareto", ["pareto", "--game", "NC00_C5", "--v0", "1/6", "--v1", "1", "--format", "table"]),
        ("csw", ["csw", "--game", "NC000_C5", "--v0", "2/3", "--v1", "1", "--format", "json"]),
        ("regimes", ["regimes", "--game", "NC00010_C5", "--format", "json"]),
        ("quantum", ["quantum", "--game", "NC01_C5"]),
        ("penalty", ["penalty", "--game", "NC01_C5", "--v0", "2/3", "--v1", "1", "--ng", "4", "--format", "json"]),
        ("kfold", ["kfold", "--game", "NC00_C5", "--k", "2", "--v0", "2/3", "--v1", "1", "--check-quantum"]),
        ("kfold_bruteforce", ["kfold", "--game", "NC00_C5", "--k", "2", "--v0", "2/3", "--v1", "1", "--method", "bruteforce"]),
        ("players_needed", ["players-needed", "--game", "NC00_C5", "--v0", "2/3", "--v1", "1", "--eps", "1/100"]),
        ("nash_file", ["nash", "--game", game_file, "--format", "json"]),
    )
    # the paper's headline values, which these commands must print
    headlines = {
        "csw": (b'"csw": "28/39"',),
        "quantum": (b'"bound": "v0/v1 >= 1/3"',),
        "players_needed": (b'"k": 26', b'"playerCount": 130'),
    }

    def inputs(self, seed: int) -> dict:
        return {"commands": [cid for cid, _ in self.commands]}

    def build(self) -> list[gq.GameSpec]:
        return [cycle_game(6)]

    def write_game_file(self, games) -> None:
        path = ROOT / self.game_file
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(gq.game_to_document(games[0], STANDARD), indent=2) + "\n")

    def run(self, games, inputs, tracer, cli_env) -> dict:
        # imported here so the set-up probes of the other workloads skip it
        from grapheq import acceptance

        out = {"cli": {}, "acceptance": {}}
        for cid, args in self.commands:
            with tracer.span(f"cli.{cid}"):
                proc = subprocess.run(
                    [sys.executable, "-m", "grapheq.cli", *args],
                    cwd=ROOT, env=cli_env, capture_output=True, timeout=150,
                )
            out["cli"][cid] = (proc.returncode, proc.stdout)
        for check in acceptance.ALL_CHECKS:
            name = check.__name__.removeprefix("check_")
            with tracer.span(f"acceptance.{name}"):
                result = check()
            out["acceptance"][name] = result
        return out

    @staticmethod
    def mask_timings(stdout: bytes) -> bytes:
        # verify prints the elapsed time of its two gated checks
        return re.sub(rb", \d+\.\d\ds$", b", <time>s", stdout, flags=re.M)

    def check(self, games, inputs, results) -> list[tuple[str, list[str]]]:
        report = []
        for cid, (code, stdout) in results["cli"].items():
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            expected = (EXPECTED / f"{cid}.out").read_bytes()
            if self.mask_timings(stdout) != self.mask_timings(expected):
                problems.append("stdout differs from the reference output")
            for needle in self.headlines.get(cid, ()):
                if needle not in stdout:
                    problems.append(f"missing headline {needle.decode()}")
            report.append((f"cli.{cid}", problems))
        for name, result in results["acceptance"].items():
            report.append((f"acceptance.{name}", [] if result.passed else [result.detail]))
        return report

    def counts(self, games, inputs, results) -> dict:
        return {}


# ---------------------------------------------------------------------------
# c5-sweep


class C5Sweep:
    """Many small in-process calls on the four builtins over seed-drawn
    ratios: the quantum and amplification layers do most of the work."""

    name = "c5-sweep"
    setup_import = "grapheq"
    product_k = 3
    kfold_k = 4
    penalty = Fraction(4)
    eps = Fraction(1, 100)

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"ratios": stratified_ratios(rng, 15) + [TWO_THIRDS], "seed": seed}

    def build(self) -> list[gq.GameSpec]:
        return [gq.builtin_game(name) for name in gq.BUILTIN_NAMES]

    def run(self, games, inputs, tracer, cli_env) -> dict:
        out = {"games": {}, "points": []}
        for game in games:
            with tracer.span("task"):
                with tracer.span("classical.payoff_table"):
                    table = gq.PayoffTable(game)
                with tracer.span("classical.ratio_regimes"):
                    regimes = gq.ratio_regimes(game, table=table)
                with tracer.span("quantum.advice"):
                    advice = gq.advice_correlation(game)
                    win = gq.verify_perfect_win(game, advice)
                    invariance = gq.verify_uniform_and_belief_invariant(game, advice)
                with tracer.span("amplification.product_win"):
                    product_win = gq.verify_product_perfect_win(gq.kfold(game, self.product_k))
            out["games"][game.name] = {
                "intervals": regimes.intervals,
                "perfect_win": win.all_perfect,
                "invariant": invariance.ok,
                "product_win": product_win,
                "table_bytes": table_bytes(table),
                "joint_questions": len(game.questions) ** self.product_k,
            }
            for ratio in inputs["ratios"]:
                params = gq.PayoffParams(ratio, Fraction(1))
                with tracer.span("task"):
                    with tracer.span("classical.nash_scan"):
                        nash = gq.enumerate_nash(game, params, table=table)
                    with tracer.span("classical.best_csw"):
                        csw, _ = gq.best_csw(game, params, table=table)
                    with tracer.span("quantum.is_quantum_nash"):
                        quantum_nash = gq.is_quantum_nash(game, params)
                    with tracer.span("amplification.penalty"):
                        penalised = gq.penalty_report(
                            game, gq.PayoffParams(ratio, Fraction(1), self.penalty), table=table
                        )
                    with tracer.span("amplification.group_table"):
                        group = gq.GroupTable(game, params, table)
                    with tracer.span("amplification.kfold"):
                        kfold = gq.kfold_best_csw(game, self.kfold_k, params, gt=group)
                    with tracer.span("amplification.players_needed"):
                        needed = gq.players_needed(game, params, self.eps)
                out["points"].append(
                    {
                        "game": game.name,
                        "ratio": ratio,
                        "nash": nash,
                        "csw": csw,
                        "quantum_nash": quantum_nash,
                        "penalty": [e.profile for e in penalised.equilibria.entries],
                        "kfold_csw": kfold.csw,
                        "needed": needed,
                    }
                )
        return out

    def check(self, games, inputs, results) -> list[tuple[str, list[str]]]:
        rng = random.Random(inputs["seed"])
        by_name = {g.name: g for g in games}
        report = []
        for name, info in results["games"].items():
            problems = [
                label
                for label, ok in (
                    ("advice does not win surely", info["perfect_win"]),
                    ("advice not uniform or not belief-invariant", info["invariant"]),
                    (f"product advice fails at k={self.product_k}", info["product_win"]),
                )
                if not ok
            ]
            report.append((name, problems))
        for point in results["points"]:
            game = by_name[point["game"]]
            ratio = point["ratio"]
            params = gq.PayoffParams(ratio, Fraction(1))
            problems = []
            intervals = results["games"][game.name]["intervals"]
            if sorted(point["nash"]) != regime_prediction(intervals, game.n, ratio):
                problems.append("Nash set differs from the ratio-regime prediction")
            if point["nash"]:
                oracle = max(gq.evaluate(game, p).social_welfare(params) for p in point["nash"])
                if point["csw"] != oracle:
                    problems.append(f"best CSW {point['csw']} != rescored {oracle}")
            if ratio == TWO_THIRDS and point["csw"] != CSW_AT_TWO_THIRDS[game.name]:
                problems.append(f"best CSW {point['csw']} != frozen {CSW_AT_TWO_THIRDS[game.name]}")
            if point["quantum_nash"] != (ratio >= QUANTUM_BOUNDS[game.name]):
                problems.append(f"is_quantum_nash {point['quantum_nash']} against bound {QUANTUM_BOUNDS[game.name]}")
            # NC01 keeps exactly this pair at every v0 < v1
            if game.name == "NC01_C5" and point["penalty"] != NC01_PENALTY_PAIR:
                problems.append(f"penalty equilibria {point['penalty']}")
            penal = gq.PayoffParams(ratio, Fraction(1), self.penalty)
            for profile in _sample(rng, point["penalty"], 2):
                if improving_deviation(game, profile, penal) is not None:
                    problems.append(f"penalty equilibrium {profile} has an improving deviation")
            needed = point["needed"]
            if needed.achieved_ratio > self.eps:
                problems.append(f"players_needed ratio {needed.achieved_ratio} above eps")
            if needed.geometric:
                previous = needed.base_ratio * needed.decay_factor ** (needed.k - 2)
                if needed.k > 1 and previous <= self.eps:
                    problems.append(f"players_needed k={needed.k} is not the smallest")
                decayed = needed.base_ratio * gq.qsw(params) * needed.decay_factor ** (self.kfold_k - 1)
                if point["kfold_csw"] != decayed:
                    problems.append(f"k={self.kfold_k} CSW {point['kfold_csw']} off the measured decay")
            report.append((f"{game.name}@{ratio}", problems))
        return report

    def counts(self, games, inputs, results) -> dict:
        sizes = {g.name: 4**g.n for g in games}
        scanned = sum(sizes[p["game"]] for p in results["points"])
        found = sum(len(p["nash"]) for p in results["points"])
        infos = results["games"].values()
        return {
            "classical.payoff_table_bytes": sum(i["table_bytes"] for i in infos),
            "classical.profiles_scanned": scanned,
            "classical.nash_yield": found / scanned,
            "amplification.joint_questions": sum(i["joint_questions"] for i in infos),
        }


# ---------------------------------------------------------------------------
# cycle-scan


class CycleScan:
    """Synthetic cycle games C6-C8: the classical scans do most of the work.

    ``ratio_regimes`` runs on C6 and C7 only; on C8 it takes about 16 s,
    would be about 80 % of the pass and hide the scan layers, and C7 runs
    the same code."""

    name = "cycle-scan"
    setup_import = "grapheq"
    sizes = (6, 7, 8)
    regimes_sizes = (6, 7)

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"ratios": stratified_ratios(rng, 6), "seed": seed}

    def build(self) -> list[gq.GameSpec]:
        return [cycle_game(n) for n in self.sizes]

    def run(self, games, inputs, tracer, cli_env) -> dict:
        out = {"games": {}, "points": []}
        for game in games:
            with tracer.span("task"):
                with tracer.span("classical.payoff_table"):
                    table = gq.PayoffTable(game)
                with tracer.span("classical.symmetry"):
                    group = gq.reporting_symmetries(game)
                intervals = None
                if game.n in self.regimes_sizes:
                    with tracer.span("classical.ratio_regimes"):
                        intervals = gq.ratio_regimes(game, table=table).intervals
            out["games"][game.name] = {"intervals": intervals, "table_bytes": table_bytes(table)}
            for ratio in inputs["ratios"]:
                params = gq.PayoffParams(ratio, Fraction(1))
                with tracer.span("task"):
                    with tracer.span("classical.nash_scan"):
                        nash = gq.enumerate_nash(game, params, table=table)
                    with tracer.span("classical.pareto_scan"):
                        pareto = gq.enumerate_pareto(game, params, table=table)
                    with tracer.span("classical.report"):
                        report = gq.build_report(game, nash, "nash", params=params, table=table, group=group)
                out["points"].append(
                    {"game": game.name, "ratio": ratio, "nash": nash, "pareto": pareto, "report": report}
                )
        return out

    def check(self, games, inputs, results) -> list[tuple[str, list[str]]]:
        rng = random.Random(inputs["seed"])
        by_name = {g.name: g for g in games}
        report = []
        for point in results["points"]:
            game = by_name[point["game"]]
            ratio = point["ratio"]
            params = gq.PayoffParams(ratio, Fraction(1))
            nash, pareto, rep = point["nash"], point["pareto"], point["report"]
            problems = []
            intervals = results["games"][game.name]["intervals"]
            if intervals is not None and sorted(nash) != regime_prediction(intervals, game.n, ratio):
                problems.append("Nash set differs from the ratio-regime prediction")
            if not set(nash) <= set(pareto):
                problems.append("a Nash profile fails the Pareto criterion")
            for profile in _sample(rng, nash, 4):
                if improving_deviation(game, profile, params) is not None:
                    problems.append(f"{profile} is listed as Nash but has an improving deviation")
            for profile in _sample(rng, pareto, 2):
                if harmless_improvement(game, profile, params) is not None:
                    problems.append(f"{profile} is listed as Pareto but a deviation hurts nobody")
            if rep.profile_count != len(nash) or sum(len(o.members) for o in rep.orbits) != len(nash):
                problems.append("report does not partition the Nash set")
            for entry in _sample(rng, rep.entries, 2):
                if entry.p_win != gq.evaluate(game, entry.profile).p_win:
                    problems.append(f"report win probability of {entry.profile} is wrong")
            report.append((f"{game.name}@{ratio}", problems))
        return report

    def counts(self, games, inputs, results) -> dict:
        sizes = {g.name: 4**g.n for g in games}
        nash_scanned = sum(sizes[p["game"]] for p in results["points"])
        found = sum(len(p["nash"]) for p in results["points"])
        return {
            "classical.payoff_table_bytes": sum(i["table_bytes"] for i in results["games"].values()),
            "classical.profiles_scanned": 2 * nash_scanned,  # one Nash and one Pareto scan each
            "classical.nash_yield": found / nash_scanned,
        }


# ---------------------------------------------------------------------------
# corr-lp


class CorrLP:
    """The exact correlated-advice LP at v0/v1 = 2/3.

    The ratio is fixed because LP time depends strongly on it: on NC01 it
    is 2.4 s at 5/12, 4.5 s at 2/3 and 160 s at 1/6, and on NC00 58 s at
    1/6, which no run budget could hold."""

    name = "corr-lp"
    setup_import = "grapheq"
    game_names = ("NC00_C5", "NC01_C5")

    def inputs(self, seed: int) -> dict:
        return {"games": list(self.game_names), "ratio": TWO_THIRDS}

    def build(self) -> list[gq.GameSpec]:
        return [gq.builtin_game(name) for name in self.game_names]

    def run(self, games, inputs, tracer, cli_env) -> dict:
        params = gq.PayoffParams(inputs["ratio"], Fraction(1))
        out = {}
        for game in games:
            with tracer.span("correlated.lp"):
                value, dist = gq.best_correlated_sw(game, params, return_distribution=True)
            out[game.name] = (value, dist)
        return out

    @staticmethod
    def obedience_violations(game, params, dist) -> list:
        """Exact slack of every obedience constraint, rescored with evaluate."""
        n = game.n
        utils = {}

        def u(profile):
            if profile not in utils:
                utils[profile] = gq.evaluate(game, profile).utilities(params)
            return utils[profile]

        slack = {}
        for code, weight in dist.items():
            profile = gq.code_to_profile(code, n)
            for j, dev in deviations(profile):
                key = (j, profile[j], dev[j])
                slack[key] = slack.get(key, Fraction(0)) + weight * (u(profile)[j] - u(dev)[j])
        return [(key, s) for key, s in slack.items() if s < 0]

    @staticmethod
    def float_optimum(game, params) -> float:
        """The same LP in floats, solved by HiGHS as an outside reference."""
        import numpy as np
        from scipy.optimize import linprog

        n = game.n
        profiles = [gq.code_to_profile(c, n) for c in range(4**n)]
        utils = np.array([[float(x) for x in gq.evaluate(game, p).utilities(params)] for p in profiles])
        rows = []
        for j in range(n):
            for f in range(LOCAL_FUNCTIONS):
                for g in range(LOCAL_FUNCTIONS):
                    if g == f:
                        continue
                    row = np.zeros(len(profiles))
                    for code, p in enumerate(profiles):
                        if p[j] == f:
                            dev = gq.profile_to_code(p[:j] + (g,) + p[j + 1 :], n)
                            row[code] = utils[dev, j] - utils[code, j]  # gain of switching <= 0
                    rows.append(row)
        res = linprog(
            -utils.mean(axis=1), A_ub=np.array(rows), b_ub=np.zeros(len(rows)),
            A_eq=np.ones((1, len(profiles))), b_eq=[1.0], bounds=(0, None), method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed: {res.message}")
        return -res.fun

    def check(self, games, inputs, results) -> list[tuple[str, list[str]]]:
        params = gq.PayoffParams(inputs["ratio"], Fraction(1))
        report = []
        for game in games:
            value, dist = results[game.name]
            problems = []
            if value != CORRELATED_AT_TWO_THIRDS[game.name]:
                problems.append(f"value {value} != frozen {CORRELATED_AT_TWO_THIRDS[game.name]}")
            if sum(dist.values()) != 1 or any(w < 0 for w in dist.values()):
                problems.append("distribution is not a probability distribution")
            bad = self.obedience_violations(game, params, dist)
            if bad:
                problems.append(f"{len(bad)} obedience constraints violated, e.g. {bad[0]}")
            welfare = sum(w * gq.evaluate(game, gq.code_to_profile(c, game.n)).social_welfare(params) for c, w in dist.items())
            if welfare != value:
                problems.append(f"distribution welfare {welfare} != value {value}")
            reference = self.float_optimum(game, params)
            if abs(reference - float(value)) > 1e-9:
                problems.append(f"HiGHS optimum {reference!r} != {float(value)!r}")
            report.append((game.name, problems))
        return report

    def counts(self, games, inputs, results) -> dict:
        # one column per profile; one obedience row per (player, f, g) plus
        # the normalisation row
        return {
            "correlated.lp_columns": sum(4**g.n for g in games),
            "correlated.lp_rows": sum(g.n * LOCAL_FUNCTIONS * (LOCAL_FUNCTIONS - 1) + 1 for g in games),
            "correlated.support_size": sum(len(dist) for _, dist in results.values()),
        }


WORKLOADS = {w.name: w for w in (C5Paper(), C5Sweep(), CycleScan(), CorrLP())}
