"""Command-line front end: analyses with table, json and csv output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 invalid
game or parameters.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import acceptance
from .amplification import kfold, kfold_best_csw, kfold_bruteforce_csw, penalty_report, players_needed, verify_product_perfect_win
from .classical import (
    EquilibriumReport,
    PayoffTable,
    build_report,
    best_csw,
    code_to_profile,
    enumerate_nash,
    enumerate_pareto,
    ratio_regimes,
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
    game, params = game_from_document(doc)
    return game, params


def _params_from_args(args, file_params: PayoffParams | None) -> PayoffParams:
    v0 = parse_rational(args.v0) if args.v0 is not None else None
    v1 = parse_rational(args.v1) if args.v1 is not None else None
    ng = parse_rational(args.ng) if args.ng is not None else None
    base = file_params or PayoffParams(Fraction(2, 3), Fraction(1))
    try:
        return PayoffParams(
            base.v0 if v0 is None else v0,
            base.v1 if v1 is None else v1,
            base.penalty if ng is None else ng,
        )
    except ValueError as exc:
        raise GameError(str(exc)) from exc


def _fr(value) -> str:
    return format_rational(value)


def _payoff_cell(payoff, scale: int, penalty: Fraction) -> str:
    a = payoff.win_v0 * scale
    b = payoff.win_v1 * scale
    cell = f"{a}*v0+{b}*v1"
    if penalty != 0:
        c = payoff.lose_v0 * scale
        d = payoff.lose_v1 * scale
        cell += f"-Ng*({c}*v0+{d}*v1)"
    return cell


def _report_scale(report: EquilibriumReport) -> int:
    dens = [1]
    for e in report.entries:
        for p in e.payoffs:
            dens.extend(
                [p.win_v0.denominator, p.win_v1.denominator, p.lose_v0.denominator, p.lose_v1.denominator]
            )
    return math.lcm(*dens)


def _report_csv(report: EquilibriumReport, n: int) -> str:
    scale = _report_scale(report)
    penalty = report.params.penalty if report.params else Fraction(0)
    header = (
        [f"f{j}" for j in range(n)]
        + [f"u{j} [x{scale}]" for j in range(n)]
        + [f"SW [x{scale * n}]", "orbitId"]
    )
    lines = [",".join(header)]
    for e in report.entries:
        sw_a = sum(p.win_v0 for p in e.payoffs) * scale
        sw_b = sum(p.win_v1 for p in e.payoffs) * scale
        sw = f"{sw_a}*v0+{sw_b}*v1"
        if penalty != 0:
            sw_c = sum(p.lose_v0 for p in e.payoffs) * scale
            sw_d = sum(p.lose_v1 for p in e.payoffs) * scale
            sw += f"-Ng*({sw_c}*v0+{sw_d}*v1)"
        cells = (
            [str(f) for f in e.profile]
            + [_payoff_cell(p, scale, penalty) for p in e.payoffs]
            + [sw, str(e.orbit_id)]
        )
        lines.append(",".join(cells))
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
            "v0": _fr(report.params.v0),
            "v1": _fr(report.params.v1),
            "ng": _fr(report.params.penalty),
        }
    if report.regime is not None:
        doc["regime"] = [_fr(report.regime[0]), _fr(report.regime[1])]
    for e in report.entries:
        entry = {
            "profile": list(e.profile),
            "pWin": _fr(e.p_win),
            "orbit": e.orbit_id,
            "payoffs": [
                {
                    "winV0": _fr(p.win_v0),
                    "winV1": _fr(p.win_v1),
                    "loseV0": _fr(p.lose_v0),
                    "loseV1": _fr(p.lose_v1),
                }
                for p in e.payoffs
            ],
        }
        if report.params is not None:
            utils = [p.value(report.params) for p in e.payoffs]
            entry["utilities"] = [_fr(u) for u in utils]
            entry["sw"] = _fr(sum(utils) / n)
        doc["entries"].append(entry)
    return doc


def _report_table(report: EquilibriumReport, n: int) -> str:
    scale = _report_scale(report)
    penalty = report.params.penalty if report.params else Fraction(0)
    lines = [
        f"# game={report.game_name} criterion={report.criterion} "
        f"profiles={report.profile_count} orbits={report.orbit_count}",
        f"# utilities scaled x{scale}, SW scaled x{scale * n}",
    ]
    header = [f"f{j}" for j in range(n)] + [f"u{j}" for j in range(n)] + ["SW", "orbit"]
    lines.append("  ".join(header))
    for e in report.entries:
        sw_a = sum(p.win_v0 for p in e.payoffs) * scale
        sw_b = sum(p.win_v1 for p in e.payoffs) * scale
        row = [str(f) for f in e.profile]
        row += [_payoff_cell(p, scale, penalty) for p in e.payoffs]
        sw = f"{sw_a}*v0+{sw_b}*v1"
        if penalty != 0:
            sw += " (win part)"
        row += [sw, str(e.orbit_id)]
        lines.append("  ".join(row))
    return "\n".join(lines) + "\n"


def _emit(args, report: EquilibriumReport, n: int) -> None:
    if args.format == "csv":
        sys.stdout.write(_report_csv(report, n))
    elif args.format == "json":
        sys.stdout.write(json.dumps(_report_json(report, n), indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_report_table(report, n))


def _cmd_equilibria(args, criterion: str) -> int:
    game, file_params = _load_game(args.game)
    params = _params_from_args(args, file_params)
    table = PayoffTable(game)
    if criterion == "nash":
        profiles = enumerate_nash(game, params, table=table)
    else:
        profiles = enumerate_pareto(game, params, table=table)
    report = build_report(game, profiles, criterion, params=params, table=table)
    _emit(args, report, game.n)
    return 0


def _cmd_csw(args) -> int:
    game, file_params = _load_game(args.game)
    params = _params_from_args(args, file_params)
    value, argmax = best_csw(game, params, args.criterion)
    doc = {
        "game": game.name,
        "criterion": args.criterion,
        "csw": _fr(value),
        "cswRounded": f"{float(value):.2f}",
        "qsw": _fr(qsw(params)),
        "argmax": [list(p) for p in argmax],
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(
            f"best {args.criterion} social welfare: {doc['csw']} (~{doc['cswRounded']})\n"
            f"quantum social welfare: {doc['qsw']}\n"
            f"achieved by: {doc['argmax']}\n"
        )
    return 0


def _cmd_regimes(args) -> int:
    game, file_params = _load_game(args.game)
    params = _params_from_args(args, file_params)
    table = PayoffTable(game)
    analysis = ratio_regimes(game, penalty=params.penalty, table=table)
    doc = {
        "game": game.name,
        "breakpoints": [_fr(b) for b in analysis.breakpoints],
        "segments": [],
        "atBreakpoints": {},
    }
    for seg in analysis.segments:
        profiles = [code_to_profile(c, game.n) for c in seg.codes]
        report = build_report(game, profiles, "nash", regime=(seg.lower, seg.upper), table=table)
        doc["segments"].append(
            {
                "lower": _fr(seg.lower),
                "upper": _fr(seg.upper),
                "profileCount": report.profile_count,
                "orbitCount": report.orbit_count,
                "representatives": [list(o.representative) for o in report.orbits],
            }
        )
    for r, codes in analysis.at_breakpoints.items():
        doc["atBreakpoints"][_fr(r)] = len(codes)
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"breakpoints: {', '.join(doc['breakpoints']) or 'none'}"]
        for seg in doc["segments"]:
            lines.append(
                f"({seg['lower']}, {seg['upper']}): {seg['profileCount']} profiles, "
                f"{seg['orbitCount']} orbits"
            )
        for r, count in doc["atBreakpoints"].items():
            lines.append(f"at r={r}: {count} profiles (union of neighbors)")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_quantum(args) -> int:
    game, file_params = _load_game(args.game)
    params = _params_from_args(args, file_params)
    advice = advice_correlation(game)
    thr = quantum_threshold(game)
    win = verify_perfect_win(game, advice)
    inv = verify_uniform_and_belief_invariant(game, advice)
    doc = {
        "game": game.name,
        "p": _fr(thr.p),
        "bound": f"v0/v1 >= {_fr(thr.bound)}",
        "perfectWin": win.all_perfect,
        "uniformAdvice": not inv.uniform_violations,
        "beliefInvariant": inv.ok,
        "qsw": _fr(qsw(params)),
        "isNash": deviation_table(game, advice).advice_is_nash(params.v0, params.v1),
        "questions": [],
    }
    for q in game.questions:
        law = advice[q.qid]
        marginals = {}
        for j in range(game.n):
            marg = law.marginal([j])
            marginals[str(j)] = {
                "0": _fr(marg.get((0,), Fraction(0))),
                "1": _fr(marg.get((1,), Fraction(0))),
            }
        doc["questions"].append(
            {
                "id": q.qid,
                "lawRank": law.rank,
                "winProbability": _fr(win.win_probability[q.qid]),
                "marginals": marginals,
            }
        )
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_corr_lp(args) -> int:
    game, file_params = _load_game(args.game)
    params = _params_from_args(args, file_params)
    table = PayoffTable(game)
    value = best_correlated_sw(game, params, table=table)
    nash_value, _ = best_csw(game, params, table=table)
    doc = {
        "game": game.name,
        "bestCorrelatedSW": _fr(value),
        "bestNashSW": _fr(nash_value),
        "qsw": _fr(qsw(params)),
    }
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_penalty(args) -> int:
    game, file_params = _load_game(args.game)
    params = _params_from_args(args, file_params)
    rep = penalty_report(game, params)
    if args.format == "csv":
        sys.stdout.write(_report_csv(rep.equilibria, game.n))
        return 0
    doc = _report_json(rep.equilibria, game.n)
    doc["quantumSW"] = _fr(rep.quantum_sw)
    doc["socialWelfares"] = [_fr(sw) for sw in rep.social_welfares]
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_report_table(rep.equilibria, game.n))
        sys.stdout.write(f"quantum SW: {_fr(rep.quantum_sw)} (independent of Ng)\n")
    return 0


def _cmd_kfold(args) -> int:
    if args.k < 1:
        raise GameError(f"--k must be at least 1, got {args.k}")
    game, file_params = _load_game(args.game)
    params = _params_from_args(args, file_params)
    if args.method == "bruteforce":
        rep = kfold_bruteforce_csw(game, args.k, params)
    else:
        rep = kfold_best_csw(game, args.k, params)
    doc = {
        "k": rep.k,
        "csw": _fr(rep.csw),
        "qsw": _fr(rep.qsw),
        "ratio": _fr(rep.ratio),
        "decayFactor": _fr(rep.decay_factor) if rep.decay_factor is not None else None,
        "method": rep.method,
    }
    if args.check_quantum:
        doc["productPerfectWin"] = verify_product_perfect_win(kfold(game, args.k))
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_players_needed(args) -> int:
    game, file_params = _load_game(args.game)
    params = _params_from_args(args, file_params)
    eps = parse_rational(args.eps)
    res = players_needed(game, params, eps)
    doc = {
        "eps": _fr(eps),
        "k": res.k,
        "playerCount": res.player_count,
        "achievedRatio": _fr(res.achieved_ratio),
        "baseRatio": _fr(res.base_ratio),
        "decayFactor": _fr(res.decay_factor),
        "geometricDecay": res.geometric,
    }
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_verify(args) -> int:
    names = [c.__name__.removeprefix("check_").replace("_", "-") for c in acceptance.ALL_CHECKS]
    wanted = None if args.checks is None else set(args.checks.split(","))
    if wanted is not None and not wanted <= set(names):
        unknown = ", ".join(sorted(wanted - set(names)))
        raise GameError(f"unknown check(s): {unknown}; valid checks: {', '.join(names)}")
    failures = 0

    def emit(result):
        nonlocal failures
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        sys.stdout.write(f"{status} {result.name}: {result.detail}\n")

    if args.game is not None:
        # validate the supplied game file as a named check
        try:
            game, params = _load_game(args.game)
            win = verify_perfect_win(game) if game.stabilizer_backed() else None
            ok = win is None or win.all_perfect
            detail = f"{game.name}: loads, {len(game.questions)} questions" + (
                ", advice wins surely" if win is not None and win.all_perfect else ""
            )
            emit(acceptance.CheckResult("game-file", ok, detail))
        except GameError as exc:
            emit(acceptance.CheckResult("game-file", False, str(exc)))
    for check, name in zip(acceptance.ALL_CHECKS, names):
        if wanted is None or name in wanted:
            emit(check())
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grapheq",
        description="Exact equilibrium analysis of parity games built from graph states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_params=True):
        p.add_argument("--game", required=True, help="builtin name or path to a game JSON file")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        if with_params:
            p.add_argument("--v0", help='rational "p/q"')
            p.add_argument("--v1", help='rational "p/q"')
            p.add_argument("--ng", help='penalty factor "p/q"')
        return p

    common(sub.add_parser("nash", help="pure Nash equilibria at fixed payoffs"))
    common(sub.add_parser("pareto", help="Pareto equilibria at fixed payoffs"))
    p = common(sub.add_parser("csw", help="best classical social welfare"))
    p.add_argument("--criterion", choices=("nash", "pareto"), default="nash")
    common(sub.add_parser("regimes", help="equilibrium sets per v0/v1 interval"))
    common(sub.add_parser("quantum", help="advice guarantees and the equilibrium threshold"))
    common(sub.add_parser("corr-lp", help="best obedient correlated social welfare"))
    common(sub.add_parser("penalty", help="Nash equilibria under a wrong-answer penalty"))
    p = common(sub.add_parser("kfold", help="k-group repetition social welfare"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("decomposition", "bruteforce"), default="decomposition")
    p.add_argument("--check-quantum", action="store_true", help="also verify the product advice wins")
    p = common(sub.add_parser("players-needed", help="players needed for a target CSW/QSW ratio"))
    p.add_argument("--eps", required=True, help='target ratio "p/q"')
    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--game", help="optionally validate a game file first")
    p.add_argument("--checks", help="comma-separated subset of check names to run")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "nash": lambda: _cmd_equilibria(args, "nash"),
        "pareto": lambda: _cmd_equilibria(args, "pareto"),
        "csw": lambda: _cmd_csw(args),
        "regimes": lambda: _cmd_regimes(args),
        "quantum": lambda: _cmd_quantum(args),
        "corr-lp": lambda: _cmd_corr_lp(args),
        "penalty": lambda: _cmd_penalty(args),
        "kfold": lambda: _cmd_kfold(args),
        "players-needed": lambda: _cmd_players_needed(args),
        "verify": lambda: _cmd_verify(args),
    }
    try:
        return handlers[args.command]()
    except GameError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_EXIT
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
