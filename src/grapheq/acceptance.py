"""Verification suite: every shipped guarantee checked end to end.

Each check returns a CheckResult; the CLI ``verify`` subcommand prints one
line per check and the test suite asserts them individually.  All numeric
comparisons are exact rationals; 2-decimal rounding appears only where a
check pins a rounded display value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _reference as ref
from .amplification import (
    GroupTable,
    _kfold_csws,
    _pair_bruteforce_csw,
    _product_perfect_win_enumerated,
    kfold,
    penalty_report,
    players_needed,
    product_nash_matrix_bruteforce,
    product_nash_matrix_decomposition,
    verify_product_perfect_win,
)
from .classical import (
    PayoffTable,
    build_report,
    best_csw,
    code_to_profile,
    evaluate,
    profile_to_code,
    ratio_regimes,
    reporting_symmetries,
)
from .games import PayoffParams, builtin_game
from .quantum import (
    advice_correlation,
    deviation_table,
    quantum_player_utilities,
    quantum_threshold,
    qsw,
    verify_perfect_win,
    verify_uniform_and_belief_invariant,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


STANDARD_PARAMS = PayoffParams(Fraction(2, 3), Fraction(1))


def _times6(payoff) -> tuple[Fraction, Fraction]:
    a, b = payoff.win_coefficients()
    return a * 6, b * 6


def check_nash_counts() -> CheckResult:
    """Pure Nash counts and class counts of NC00_C5 across the three regimes."""
    started = time.perf_counter()
    game = builtin_game("NC00_C5")
    table = PayoffTable(game)
    regimes = ratio_regimes(game, table=table)
    group = reporting_symmetries(game)
    results = {}
    for label, lo, hi in ref.REGIMES:
        codes = regimes.codes_on(lo, hi)
        report = build_report(
            game, [code_to_profile(c, 5) for c in codes],
            "nash", table=table, group=group,
        )
        results[label] = (report.profile_count, report.orbit_count)
    elapsed = time.perf_counter() - started
    ok = results == ref.NC00_NASH_COUNTS and elapsed < 1.0
    return CheckResult(
        "nash-counts",
        ok,
        f"counts {results} expected {ref.NC00_NASH_COUNTS}, {elapsed:.2f}s",
    )


def check_nash_reference_table() -> CheckResult:
    """Utility and social-welfare coefficients of every listed NC00 row, the
    exact Nash interval of each row, breakpoints, and the union property at
    breakpoints."""
    game = builtin_game("NC00_C5")
    table = PayoffTable(game)
    regimes = ratio_regimes(game, table=table)
    problems = []
    for label, rows in ref.NC00_NASH_ROWS.items():
        for profile, utils6, sw30 in rows:
            ev = evaluate(game, profile)
            got = [_times6(p) for p in ev.payoffs]
            want = [(Fraction(a), Fraction(b)) for a, b in utils6]
            if got != want:
                problems.append(f"{label}{profile}: utils {got} != {want}")
            sw_a = sum(a for a, _ in got)
            sw_b = sum(b for _, b in got)
            if (sw_a, sw_b) != (Fraction(sw30[0]), Fraction(sw30[1])):
                problems.append(f"{label}{profile}: SW ({sw_a},{sw_b}) != {sw30}")
    for profile, (lo, hi) in ref.NC00_NASH_INTERVALS.items():
        code = profile_to_code(profile, 5)
        got = regimes.intervals.get(code)
        if got != (lo, hi):
            problems.append(f"{profile}: interval {got} != ({lo},{hi})")
    if regimes.breakpoints != (ref.THIRD, ref.HALF):
        problems.append(f"breakpoints {regimes.breakpoints}")
    for r in regimes.breakpoints:
        left = next(s for s in regimes.segments if s.upper == r)
        right = next(s for s in regimes.segments if s.lower == r)
        union = tuple(sorted(set(left.codes) | set(right.codes)))
        if regimes.at_breakpoints[r] != union:
            problems.append(f"breakpoint {r}: set is not the union of neighbors")
    return CheckResult(
        "nash-reference-table",
        not problems,
        "14 rows, intervals, breakpoints ok" if not problems else "; ".join(problems[:4]),
    )


def _match_reference(game, profiles, rows, counts, table, group):
    """Count/class comparison plus row-level coefficient matching."""
    problems = []
    report = build_report(game, profiles, "check", table=table, group=group)
    if (report.profile_count, report.orbit_count) != counts:
        problems.append(
            f"got {report.profile_count}/{report.orbit_count}, expected {counts[0]}/{counts[1]}"
        )
    members = {e.profile for e in report.entries}
    rep_orbit = {e.profile: e.orbit_id for e in report.entries}
    used_orbits = set()
    for profile, utils6, sw30 in rows:
        if profile not in members:
            problems.append(f"missing listed profile {profile}")
            continue
        oid = rep_orbit[profile]
        if oid in used_orbits:
            problems.append(f"{profile} duplicates an already matched class")
        used_orbits.add(oid)
        ev = evaluate(game, profile)
        got = [_times6(p) for p in ev.payoffs]
        want = [(Fraction(a), Fraction(b)) for a, b in utils6]
        if got != want:
            problems.append(f"{profile}: utils {got} != {want}")
        if (sum(a for a, _ in got), sum(b for _, b in got)) != sw30:
            problems.append(f"{profile}: SW mismatch")
    if len(used_orbits) != report.orbit_count:
        problems.append(
            f"listed rows cover {len(used_orbits)} classes of {report.orbit_count}"
        )
    return problems


def check_equilibrium_reference_tables() -> CheckResult:
    """Pareto listings for NC00 and the two NC01 listings, row for row.

    The 76/13 listing for NC01 contains profiles with strictly improving
    unilateral deviations (for example all-negation, where switching to
    constant 1 gains (2v1-2v0)/6), so it cannot be a Nash set; it is
    reproduced exactly by the Pareto criterion, while the 40/6 listing is
    the Nash set on v0/v1 >= 1/2 (and indeed on all of (1/3, 1]).
    """
    from .classical import enumerate_pareto

    problems = []
    nc00 = builtin_game("NC00_C5")
    t00 = PayoffTable(nc00)
    g00 = reporting_symmetries(nc00)
    sample = {"low": Fraction(1, 6), "mid": Fraction(5, 12), "high": Fraction(3, 4)}
    for label, rows in ref.NC00_PARETO_ROWS.items():
        params = PayoffParams(sample[label], Fraction(1))
        profiles = enumerate_pareto(nc00, params, table=t00)
        problems += [
            f"NC00 pareto {label}: {p}"
            for p in _match_reference(nc00, profiles, rows, ref.NC00_PARETO_COUNTS[label], t00, g00)
        ]
    nc01 = builtin_game("NC01_C5")
    t01 = PayoffTable(nc01)
    g01 = reporting_symmetries(nc01)
    pareto_mid = enumerate_pareto(nc01, PayoffParams(Fraction(5, 12), Fraction(1)), table=t01)
    problems += [
        f"NC01 76/13 (pareto) {p}"
        for p in _match_reference(
            nc01, pareto_mid, ref.NC01_NASH_ROWS["mid"], ref.NC01_NASH_COUNTS["mid"], t01, g01
        )
    ]
    regimes = ratio_regimes(nc01, table=t01)
    codes = regimes.codes_on(ref.HALF, Fraction(1))
    nash_high = [code_to_profile(c, 5) for c in codes]
    problems += [
        f"NC01 40/6 (nash) {p}"
        for p in _match_reference(
            nc01, nash_high, ref.NC01_NASH_ROWS["high"], ref.NC01_NASH_COUNTS["high"], t01, g01
        )
    ]
    return CheckResult(
        "equilibrium-reference-tables",
        not problems,
        "pareto 121/18, 91/14, 81/12; NC01 76/13 (pareto criterion) and 40/6 (nash) ok"
        if not problems
        else "; ".join(problems[:4]),
    )


def check_social_welfare() -> CheckResult:
    """Best pure-Nash CSW at v0=2/3, v1=1 and the constant quantum SW 5/6."""
    problems = []
    details = []
    for name in ("NC00_C5", "NC01_C5", "NC000_C5", "NC00010_C5"):
        game = builtin_game(name)
        value, _ = best_csw(game, STANDARD_PARAMS)
        exact, rounded = ref.BEST_CSW[name]
        if exact is not None and value != exact:
            problems.append(f"{name}: CSW {value} != {exact}")
        if f"{float(value):.2f}" != rounded:
            problems.append(f"{name}: CSW {value} rounds to {float(value):.2f} not {rounded}")
        details.append(f"{name}={value}")
        if qsw(STANDARD_PARAMS) != Fraction(5, 6):
            problems.append("QSW != 5/6")
    return CheckResult(
        "social-welfare",
        not problems,
        ("CSW " + ", ".join(details) + "; QSW=5/6") if not problems else "; ".join(problems),
    )


def check_quantum_guarantees() -> CheckResult:
    """Perfect win, uniform advice, belief invariance, per-player utility."""
    problems = []
    for name in ("NC00_C5", "NC01_C5", "NC000_C5", "NC00010_C5"):
        game = builtin_game(name)
        advice = advice_correlation(game)
        win = verify_perfect_win(game, advice)
        if not win.all_perfect:
            problems.append(f"{name}: win probabilities {win.win_probability}")
        inv = verify_uniform_and_belief_invariant(game, advice)
        if not inv.ok:
            problems.append(f"{name}: uniformity/invariance violations")
        utils = quantum_player_utilities(game, STANDARD_PARAMS)
        if any(u != Fraction(5, 6) for u in utils):
            problems.append(f"{name}: player utilities {utils}")
    return CheckResult(
        "quantum-guarantees",
        not problems,
        "perfect win, uniform, belief-invariant, utility (v0+v1)/2 on all builtins"
        if not problems
        else "; ".join(problems),
    )


def check_quantum_thresholds() -> CheckResult:
    """Threshold values and 101-point agreement with the deviation scan."""
    problems = []
    details = []
    for name in ("NC00_C5", "NC01_C5", "NC000_C5", "NC00010_C5"):
        game = builtin_game(name)
        thr = quantum_threshold(game)
        if name in ref.QUANTUM_THRESHOLDS and thr.p != ref.QUANTUM_THRESHOLDS[name]:
            problems.append(f"{name}: p {thr.p} != {ref.QUANTUM_THRESHOLDS[name]}")
        details.append(f"{name}: p={thr.p}")
        table = deviation_table(game)
        for i in range(101):
            r = Fraction(i, 100)
            threshold_says = r >= thr.bound
            exhaustive_says = table.advice_is_nash(r, 1)
            if threshold_says != exhaustive_says:
                problems.append(f"{name}: disagreement at r={r}")
                break
    return CheckResult(
        "quantum-thresholds",
        not problems,
        "; ".join(details) + "; grid agreement 4x101" if not problems else "; ".join(problems),
    )


def check_penalty_equilibria() -> CheckResult:
    """NC01 with a large penalty keeps exactly two equilibria with the known
    social-welfare forms, while the quantum SW is unchanged."""
    game = builtin_game("NC01_C5")
    table = PayoffTable(game)
    problems = []
    v0, v1 = Fraction(2, 3), Fraction(1)
    for ng in (Fraction(301, 100), Fraction(4), Fraction(10), Fraction(100)):
        params = PayoffParams(v0, v1, ng)
        rep = penalty_report(game, params, table=table)
        profiles = [e.profile for e in rep.equilibria.entries]
        if profiles != [(0, 0, 0, 0, 0), (3, 3, 3, 3, 3)]:
            problems.append(f"Ng={ng}: equilibria {profiles}")
            continue
        want = {
            (0, 0, 0, 0, 0): (-ng * v0 + 5 * v0) / 6,
            (3, 3, 3, 3, 3): (-ng * v0 + 2 * v0 + 3 * v1) / 6,
        }
        for profile, sw in zip(profiles, rep.social_welfares):
            if sw != want[profile]:
                problems.append(f"Ng={ng} {profile}: SW {sw} != {want[profile]}")
        if rep.quantum_sw != Fraction(5, 6):
            problems.append(f"Ng={ng}: quantum SW {rep.quantum_sw}")
    return CheckResult(
        "penalty-equilibria",
        not problems,
        "2 equilibria with exact SW forms at Ng in {3.01, 4, 10, 100}" if not problems else "; ".join(problems),
    )


def check_kfold_agreement() -> CheckResult:
    """Two-group repetition: decomposition vs brute force, exactly, plus the
    quantum guarantee on the 10-qubit product and the measured decay."""
    game = builtin_game("NC00_C5")
    gt = GroupTable(game, STANDARD_PARAMS)
    problems = []
    rule = product_nash_matrix_decomposition(gt)
    brute = product_nash_matrix_bruteforce(game, STANDARD_PARAMS, gt)
    if not np.array_equal(rule, brute):
        problems.append(f"Nash sets differ on {int((rule != brute).sum())} pairs")
    # the decomposition's best welfare at k = 1..4, from one pass
    csws = _kfold_csws(gt)
    csw = [Fraction(*next(csws)) for _ in range(4)]
    bf = _pair_bruteforce_csw(gt, brute)
    if csw[1] != bf.csw:
        problems.append(f"best CSW {csw[1]} (decomposition) != {bf.csw} (brute force)")
    product = kfold(game, 2)
    factorised = verify_product_perfect_win(product)
    if factorised != _product_perfect_win_enumerated(product):
        problems.append("factorised and enumerated product perfect-win checks disagree")
    if not factorised:
        problems.append("advice does not win the 10-qubit product surely")
    decays = [csw[i + 1] / csw[i] for i in range(3)]
    if len(set(decays)) != 1:
        problems.append(f"decay factors not constant: {decays}")
    # measured law: csw(k) = decay^(k-1) * csw(1); the exponent-k variant
    # fails already at k=1, where it would contradict csw(1) = csw(1)
    decay = decays[0]
    naive_matches = csw[1] == decay ** 2 * csw[0]
    detail = (
        f"nash sets equal ({int(brute.sum())} pairs), best CSW {bf.csw}, "
        f"decay {decay} per extra group (exponent k-1; the exponent-k reading "
        f"{'also matches' if naive_matches else 'does not match the k=2 oracle'})"
    )
    return CheckResult("kfold-agreement", not problems, detail if not problems else "; ".join(problems))


def check_player_scaling() -> CheckResult:
    """k grows linearly in log(1/eps): fit over eps = 10^-1 .. 10^-6."""
    game = builtin_game("NC00_C5")
    xs, ks = [], []
    problems = []
    for m in range(1, 7):
        eps = Fraction(1, 10**m)
        res = players_needed(game, STANDARD_PARAMS, eps)
        if res.achieved_ratio > eps:
            problems.append(f"eps={eps}: ratio {res.achieved_ratio} above target")
        xs.append(math.log(10**m))
        ks.append(res.k)
    mean_x = sum(xs) / len(xs)
    mean_k = sum(ks) / len(ks)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    skk = sum((k - mean_k) ** 2 for k in ks)
    sxk = sum((x - mean_x) * (k - mean_k) for x, k in zip(xs, ks))
    r2 = sxk * sxk / (sxx * skk)
    if r2 <= 0.999:
        problems.append(f"R^2 {r2:.6f} <= 0.999")
    return CheckResult(
        "player-scaling",
        not problems,
        f"k={ks} over six decades, R^2={r2:.5f}" if not problems else "; ".join(problems),
    )


def check_win_oracle() -> CheckResult:
    """Classical win bits against the advice-law supports.

    For NC00 every advice law has a single parity constraint, so a profile
    wins a question exactly when its deterministic answers lie in the law's
    support; that equivalence is checked for all 6 x 1024 pairs.  For the
    other builtins some laws carry a second stabilizer constraint and the
    support is a strict subset of the winning set, so membership implies a
    win but not conversely; the implication is checked everywhere.
    """
    started = time.perf_counter()
    problems = []
    for name in ("NC00_C5", "NC01_C5", "NC000_C5", "NC00010_C5"):
        game = builtin_game(name)
        table = PayoffTable(game)
        advice = advice_correlation(game)
        n = game.n
        codes = np.arange(table.ncodes, dtype=np.int64)
        answer_lut = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=np.uint8)
        digits = [((codes >> (2 * (n - 1 - j))) & 3) for j in range(n)]
        for qi, q in enumerate(game.questions):
            law = advice[q.qid]
            answers = np.stack(
                [answer_lut[digits[j], q.type_bits[j]] for j in range(n)], axis=1
            )
            residual = (answers @ law.matrix.T + law.rhs[np.newaxis, :]) & 1
            member = ~residual.any(axis=1)
            win = table.win_bits[:, qi]
            if law.rank == 1 and not np.array_equal(member, win):
                problems.append(f"{name} {q.qid}: support != winning set")
            if np.any(member & ~win):
                problems.append(f"{name} {q.qid}: support leaks outside the winning set")
        if name == "NC00_C5" and any(
            advice[q.qid].rank != 1 for q in game.questions
        ):
            problems.append("NC00_C5: expected rank-1 laws")
    elapsed = time.perf_counter() - started
    return CheckResult(
        "win-oracle",
        not problems and elapsed < 10.0,
        f"6144 equivalences on NC00_C5 plus containment on all builtins, {elapsed:.2f}s"
        if not problems
        else "; ".join(problems[:4]),
    )


ALL_CHECKS = (
    check_nash_counts,
    check_nash_reference_table,
    check_equilibrium_reference_tables,
    check_social_welfare,
    check_quantum_guarantees,
    check_quantum_thresholds,
    check_penalty_equilibria,
    check_kfold_agreement,
    check_player_scaling,
    check_win_oracle,
)


def run_all(report=None) -> list[CheckResult]:
    """Run every check, optionally streaming results through ``report``."""
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        if report is not None:
            report(result)
    return results
