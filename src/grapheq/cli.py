"""Command-line front end: analyses with table, json and csv output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 invalid
game or parameters.  Every subcommand loads its game and payoffs through
``_inputs``, writes json through ``_write_json`` and draws a report's table
or csv through ``_render_report``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import acceptance
from .amplification import kfold, kfold_best_csw, kfold_bruteforce_csw, penalty_report
from .amplification import players_needed, verify_product_perfect_win
from .classical import (
    EquilibriumReport,
    LinearPayoff,
    PayoffTable,
    build_report,
    best_csw,
    code_to_profile,
    enumerate_nash,
    enumerate_pareto,
    partition_orbits,
    ratio_regimes,
    reporting_symmetries,
)
from .correlated import best_correlated_sw
from .errors import GameError
from .games import (
    BUILTIN_NAMES,
    GameSpec,
    PayoffParams,
    builtin_game,
    format_rational,
    game_from_document,
    parse_rational,
)
from .quantum import (
    FOLLOW_INDEX,
    advice_correlation,
    deviation_table,
    quantum_threshold,
    qsw,
    verify_perfect_win,
    verify_uniform_and_belief_invariant,
)

INPUT_EXIT = 3  # argparse itself exits 2 on usage errors


def _load_game(selector: str) -> tuple[GameSpec, PayoffParams | None]:
    if selector in BUILTIN_NAMES:
        return builtin_game(selector), None
    try:
        with open(selector, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GameError(f"cannot read game file {selector}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameError(f"game file {selector} is not valid JSON: {exc}") from exc
    return game_from_document(doc)


def _inputs(args) -> tuple[GameSpec, PayoffParams]:
    """The ``--game`` and its payoffs: each of ``--v0``, ``--v1`` and ``--ng``
    overrides the game file's value, which defaults to v0/v1 = 2/3, Ng = 0.
    ``verify`` has no payoff options and gets those defaults."""
    game, file_params = _load_game(args.game)
    base = file_params or PayoffParams(Fraction(2, 3), Fraction(1))
    defaults = (base.v0, base.v1, base.penalty)
    given = (getattr(args, name, None) for name in ("v0", "v1", "ng"))
    values = [d if t is None else parse_rational(t) for t, d in zip(given, defaults)]
    return game, PayoffParams(*values)


def _write_json(doc: dict) -> int:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _parts(p: LinearPayoff, lose: bool = True) -> tuple[Fraction, ...]:
    """The win coefficients of ``p``, then its lose coefficients if ``lose``."""
    return (p.win_v0, p.win_v1, p.lose_v0, p.lose_v1) if lose else (p.win_v0, p.win_v1)


def _render_report(report: EquilibriumReport, n: int, csv: bool) -> str:
    """The csv or table listing of ``report``, one row per profile.

    A utility prints as ``a*v0+b*v1``, then ``-Ng*(c*v0+d*v1)`` under a
    penalty (the only case that reads the lose coefficients), in integers
    over one common scale; SW sums them, and the table's SW is the win part.
    """
    scale = math.lcm(*(c.denominator for e in report.entries for p in e.payoffs for c in _parts(p)))
    penalty = report.params is not None and report.params.penalty != 0

    def coefficients(p) -> list[int]:
        return [c.numerator * (scale // c.denominator) for c in _parts(p, penalty)]

    def form(c: list[int]) -> str:
        lose = f"-Ng*({c[2]}*v0+{c[3]}*v1)" if len(c) > 2 else ""
        return f"{c[0]}*v0+{c[1]}*v1{lose}"

    profile_cols = [f"f{j}" for j in range(n)]
    if csv:
        sep = ","
        units = [f"u{j} [x{scale}]" for j in range(n)] + [f"SW [x{scale * n}]", "orbitId"]
        lines = [sep.join(profile_cols + units)]
    else:
        sep = "  "
        lines = [
            f"# game={report.game_name} criterion={report.criterion} "
            f"profiles={report.profile_count} orbits={report.orbit_count}",
            f"# utilities scaled x{scale}, SW scaled x{scale * n}",
            sep.join(profile_cols + [f"u{j}" for j in range(n)] + ["SW", "orbit"]),
        ]
    for e in report.entries:
        cells = [coefficients(p) for p in e.payoffs]
        sw = [sum(column) for column in zip(*cells)]
        sw_cell = form(sw) if csv else form(sw[:2]) + (" (win part)" if penalty else "")
        row = [str(f) for f in e.profile] + [form(c) for c in cells] + [sw_cell, str(e.orbit_id)]
        lines.append(sep.join(row))
    return "\n".join(lines) + "\n"


def _report_json(report: EquilibriumReport, n: int) -> dict:
    doc = {
        "game": report.game_name,
        "criterion": report.criterion,
        "profileCount": report.profile_count,
        "orbitCount": report.orbit_count,
        "entries": [],
        "orbits": [
            {"representative": list(o.representative), "size": len(o.members)}
            for o in report.orbits
        ],
    }
    if report.params is not None:
        doc["params"] = {
            "v0": format_rational(report.params.v0),
            "v1": format_rational(report.params.v1),
            "ng": format_rational(report.params.penalty),
        }
    for e in report.entries:
        entry = {
            "profile": list(e.profile),
            "pWin": format_rational(e.p_win),
            "orbit": e.orbit_id,
            "payoffs": [
                dict(zip(("winV0", "winV1", "loseV0", "loseV1"), map(format_rational, _parts(p))))
                for p in e.payoffs
            ],
        }
        if report.params is not None:
            utils = [p.value(report.params) for p in e.payoffs]
            entry["utilities"] = [format_rational(u) for u in utils]
            entry["sw"] = format_rational(sum(utils) / n)
        doc["entries"].append(entry)
    return doc


def _emit_report(args, report: EquilibriumReport, n: int, extra=None, footer: str = "") -> int:
    """``report`` in ``--format``: ``extra`` joins the json document and
    ``footer`` follows the table."""
    if args.format == "json":
        return _write_json({**_report_json(report, n), **(extra or {})})
    csv = args.format == "csv"
    sys.stdout.write(_render_report(report, n, csv) + ("" if csv else footer))
    return 0


def _cmd_equilibria(args) -> int:
    game, params = _inputs(args)
    table = PayoffTable(game)
    scan = enumerate_nash if args.command == "nash" else enumerate_pareto
    profiles = scan(game, params, table=table)
    report = build_report(game, profiles, args.command, params=params, table=table)
    return _emit_report(args, report, game.n)


def _cmd_csw(args) -> int:
    game, params = _inputs(args)
    value, argmax = best_csw(game, params, args.criterion)
    doc = {
        "game": game.name,
        "criterion": args.criterion,
        "csw": format_rational(value),
        "cswRounded": f"{float(value):.2f}",
        "qsw": format_rational(qsw(params)),
        "argmax": [list(p) for p in argmax],
    }
    if args.format == "json":
        return _write_json(doc)
    sys.stdout.write(
        f"best {args.criterion} social welfare: {doc['csw']} (~{doc['cswRounded']})\n"
        f"quantum social welfare: {doc['qsw']}\n"
        f"achieved by: {doc['argmax']}\n"
    )
    return 0


def _cmd_regimes(args) -> int:
    game, params = _inputs(args)
    analysis = ratio_regimes(game, penalty=params.penalty)
    group = reporting_symmetries(game)
    doc = {
        "game": game.name,
        "breakpoints": [format_rational(b) for b in analysis.breakpoints],
        "segments": [],
        "atBreakpoints": {format_rational(r): len(c) for r, c in analysis.at_breakpoints.items()},
    }
    for seg in analysis.segments:
        orbits = partition_orbits((code_to_profile(c, game.n) for c in seg.codes), group)
        doc["segments"].append(
            {
                "lower": format_rational(seg.lower),
                "upper": format_rational(seg.upper),
                "profileCount": len(seg.codes),
                "orbitCount": len(orbits),
                "representatives": [list(o.representative) for o in orbits],
            }
        )
    if args.format == "json":
        return _write_json(doc)
    lines = [f"breakpoints: {', '.join(doc['breakpoints']) or 'none'}"]
    row = "({lower}, {upper}): {profileCount} profiles, {orbitCount} orbits"
    lines += [row.format_map(seg) for seg in doc["segments"]]
    for r, count in doc["atBreakpoints"].items():
        lines.append(f"at r={r}: {count} profiles (union of neighbors)")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_quantum(args) -> int:
    game, params = _inputs(args)
    advice = advice_correlation(game)
    thr = quantum_threshold(game)
    win = verify_perfect_win(game, advice)
    inv = verify_uniform_and_belief_invariant(game, advice)
    deviations = deviation_table(game, advice)
    # each player's identity policy is what following the advice is worth
    v0, v1 = params.v0, params.v1
    follow = sum(a * v0 + b * v1 for a, b in (row[FOLLOW_INDEX] for row in deviations.rows))
    doc = {
        "game": game.name,
        "p": format_rational(thr.p),
        "bound": f"v0/v1 >= {format_rational(thr.bound)}",
        "perfectWin": win.all_perfect,
        "uniformAdvice": not inv.uniform_violations,
        "beliefInvariant": inv.ok,
        "qsw": format_rational(follow / (deviations.scale * game.n)),
        "isNash": deviations.advice_is_nash(v0, v1),
        "questions": [],
    }
    for q in game.questions:
        law = advice[q.qid]
        margs = [law.marginal([j]) for j in range(game.n)]
        marginals = {
            str(j): {str(b): format_rational(m.get((b,), 0)) for b in (0, 1)}
            for j, m in enumerate(margs)
        }
        doc["questions"].append(
            {
                "id": q.qid,
                "lawRank": law.rank,
                "winProbability": format_rational(win.win_probability[q.qid]),
                "marginals": marginals,
            }
        )
    return _write_json(doc)


def _cmd_corr_lp(args) -> int:
    game, params = _inputs(args)
    table = PayoffTable(game)
    value = best_correlated_sw(game, params, table=table)
    nash_value, _ = best_csw(game, params, table=table)
    return _write_json(
        {
            "game": game.name,
            "bestCorrelatedSW": format_rational(value),
            "bestNashSW": format_rational(nash_value),
            "qsw": format_rational(qsw(params)),
        }
    )


def _cmd_penalty(args) -> int:
    game, params = _inputs(args)
    rep = penalty_report(game, params)
    quantum_sw = format_rational(rep.quantum_sw)
    welfares = [format_rational(sw) for sw in rep.social_welfares]
    extra = {"quantumSW": quantum_sw, "socialWelfares": welfares}
    footer = f"quantum SW: {quantum_sw} (independent of Ng)\n"
    return _emit_report(args, rep.equilibria, game.n, extra, footer)


def _cmd_kfold(args) -> int:
    if args.k < 1:
        raise GameError(f"--k must be at least 1, got {args.k}")
    game, params = _inputs(args)
    search = kfold_bruteforce_csw if args.method == "bruteforce" else kfold_best_csw
    rep = search(game, args.k, params)
    doc = {
        "k": rep.k,
        "csw": format_rational(rep.csw),
        "qsw": format_rational(rep.qsw),
        "ratio": format_rational(rep.ratio),
        "decayFactor": format_rational(rep.decay_factor) if rep.decay_factor is not None else None,
        "method": rep.method,
    }
    if args.check_quantum:
        doc["productPerfectWin"] = verify_product_perfect_win(kfold(game, args.k))
    return _write_json(doc)


def _cmd_players_needed(args) -> int:
    game, params = _inputs(args)
    eps = parse_rational(args.eps)
    res = players_needed(game, params, eps)
    return _write_json(
        {
            "eps": format_rational(eps),
            "k": res.k,
            "playerCount": res.player_count,
            "achievedRatio": format_rational(res.achieved_ratio),
            "baseRatio": format_rational(res.base_ratio),
            "decayFactor": format_rational(res.decay_factor),
            "geometricDecay": res.geometric,
        }
    )


def _cmd_verify(args) -> int:
    names = [c.__name__.removeprefix("check_").replace("_", "-") for c in acceptance.ALL_CHECKS]
    wanted = set(names if args.checks is None else args.checks.split(","))
    if not wanted <= set(names):
        unknown = ", ".join(sorted(wanted - set(names)))
        raise GameError(f"unknown check(s): {unknown}; valid checks: {', '.join(names)}")

    def game_file():
        # the supplied game file, validated as a named check
        try:
            game, _ = _inputs(args)
            win = verify_perfect_win(game) if game.stabilizer_backed() else None
            ok = win is None or win.all_perfect
            detail = f"{game.name}: loads, {len(game.questions)} questions" + (
                ", advice wins surely" if win is not None and win.all_perfect else ""
            )
        except GameError as exc:
            return acceptance.CheckResult("game-file", False, str(exc))
        return acceptance.CheckResult("game-file", ok, detail)

    checks = [game_file] if args.game is not None else []
    checks += [c for c, name in zip(acceptance.ALL_CHECKS, names) if name in wanted]
    failures = 0
    for check in checks:
        result = check()
        failures += not result.passed
        sys.stdout.write(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}\n")
    return 1 if failures else 0


COMMANDS = (
    ("nash", "pure Nash equilibria at fixed payoffs", _cmd_equilibria),
    ("pareto", "Pareto equilibria at fixed payoffs", _cmd_equilibria),
    ("csw", "best classical social welfare", _cmd_csw),
    ("regimes", "equilibrium sets per v0/v1 interval", _cmd_regimes),
    ("quantum", "advice guarantees and the equilibrium threshold", _cmd_quantum),
    ("corr-lp", "best obedient correlated social welfare", _cmd_corr_lp),
    ("penalty", "Nash equilibria under a wrong-answer penalty", _cmd_penalty),
    ("kfold", "k-group repetition social welfare", _cmd_kfold),
    ("players-needed", "players needed for a target CSW/QSW ratio", _cmd_players_needed),
    ("verify", "run the full verification suite", _cmd_verify),
)


def build_parser() -> argparse.ArgumentParser:
    description = "Exact equilibrium analysis of parity games built from graph states."
    parser = argparse.ArgumentParser(prog="grapheq", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if handler is _cmd_verify:
            continue
        p.add_argument("--game", required=True, help="builtin name or path to a game JSON file")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--v0", help='rational "p/q"')
        p.add_argument("--v1", help='rational "p/q"')
        p.add_argument("--ng", help='penalty factor "p/q"')
    # the options of single commands follow the shared ones
    add = {name: p.add_argument for name, p in sub.choices.items()}
    add["csw"]("--criterion", choices=("nash", "pareto"), default="nash")
    add["kfold"]("--k", type=int, required=True)
    add["kfold"]("--method", choices=("decomposition", "bruteforce"), default="decomposition")
    add["kfold"]("--check-quantum", action="store_true", help="also verify the product advice wins")
    add["players-needed"]("--eps", required=True, help='target ratio "p/q"')
    add["verify"]("--game", help="optionally validate a game file first")
    add["verify"]("--checks", help="comma-separated subset of check names to run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GameError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
