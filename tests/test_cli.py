"""CLI behavior: output formats, determinism, exit codes."""

import json
import time
from fractions import Fraction

from grapheq import PayoffParams, builtin_game, classical, cli, game_to_document
from helpers import cycle_game, run_cli


def test_nash_csv_counts():
    code, out, _ = run_cli("nash", "--game", "NC00_C5", "--v0", "2/3", "--v1", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split(",")[:5] == ["f0", "f1", "f2", "f3", "f4"]
    assert "u0 [x6]" in header and "SW [x30]" in header
    assert len(rows) == 40
    orbit_ids = {row.split(",")[-1] for row in rows}
    assert len(orbit_ids) == 6


def test_quantum_json_fields():
    code, out, _ = run_cli("quantum", "--game", "NC01_C5")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == "2/3"
    assert doc["bound"] == "v0/v1 >= 1/3"
    assert doc["perfectWin"] is True
    assert doc["beliefInvariant"] is True
    assert len(doc["questions"]) == 6
    marg = doc["questions"][0]["marginals"]["0"]
    assert marg == {"0": "1/2", "1": "1/2"}


def test_same_command_is_byte_identical():
    first = run_cli("nash", "--game", "NC01_C5", "--v0", "2/3", "--v1", "1", "--format", "json")
    second = run_cli("nash", "--game", "NC01_C5", "--v0", "2/3", "--v1", "1", "--format", "json")
    assert first == second


def test_json_report_rationals_are_exact():
    code, out, _ = run_cli("nash", "--game", "NC00_C5", "--v0", "2/3", "--v1", "1", "--format", "json")
    doc = json.loads(out)
    assert doc["profileCount"] == 40
    entry = doc["entries"][0]
    assert all("/" in u or u.isdigit() or u == "0" for u in entry["utilities"])
    assert doc["params"] == {"v0": "2/3", "v1": "1", "ng": "0"}


def test_kfold_json_shape():
    code, out, _ = run_cli("kfold", "--game", "NC00_C5", "--k", "2", "--v0", "2/3", "--v1", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "csw": "23/36",
        "decayFactor": "5/6",
        "k": 2,
        "method": "decomposition",
        "qsw": "5/6",
        "ratio": "23/30",
    }


def test_kfold_bruteforce_agrees():
    _, dec, _ = run_cli("kfold", "--game", "NC00_C5", "--k", "2", "--v0", "2/3", "--v1", "1")
    _, bf, _ = run_cli(
        "kfold", "--game", "NC00_C5", "--k", "2", "--v0", "2/3", "--v1", "1", "--method", "bruteforce"
    )
    assert json.loads(dec)["csw"] == json.loads(bf)["csw"]


def test_kfold_bruteforce_agrees_past_int64():
    # v1/v0 = 2^58: the k=2 deviation products no longer fit int64, so the
    # brute force scans Python integers instead of refusing
    args = ("kfold", "--game", "NC00_C5", "--k", "2", "--v0", f"1/{2**58}", "--v1", "1")
    dec = run_cli(*args)
    bf = run_cli(*args, "--method", "bruteforce")
    assert (dec[0], dec[2], bf[0], bf[2]) == (0, "", 0, "")
    assert json.loads(bf[1])["csw"] == json.loads(dec[1])["csw"] == "612489549322387457/1297036692682702848"


def test_kfold_bruteforce_over_twelve_players_exits_3(tmp_path):
    # C7 at k=2 is 14 players, past the brute-force limit
    path = tmp_path / "c7.json"
    path.write_text(json.dumps(game_to_document(cycle_game(7), PayoffParams(Fraction(2, 3), Fraction(1)))))
    code, out, err = run_cli("kfold", "--game", str(path), "--k", "2", "--method", "bruteforce")
    assert (code, out) == (3, "")
    assert "brute force limited to 12 players" in err


def test_kfold_rejects_k_below_one():
    for k in ("0", "-2"):
        code, out, err = run_cli("kfold", "--game", "NC00_C5", "--k", k, "--v0", "2/3", "--v1", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: --k must be at least 1")


def test_kfold_checks_quantum_at_players_needed_k():
    code, out, err = run_cli(
        "kfold", "--game", "NC00_C5", "--k", "26", "--v0", "2/3", "--v1", "1", "--check-quantum"
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["productPerfectWin"] is True
    assert doc["csw"] == str(Fraction(23, 30) * Fraction(5, 6) ** 25)


def test_kfold_exact_past_int64():
    # v1/v0 = 2^61 and 2^70: the scaled utilities no longer fit int64
    for v0 in ("1/2305843009213693952", f"1/{2**70}"):
        code, out, err = run_cli("kfold", "--game", "NC00_C5", "--k", "1", "--v0", v0, "--v1", "1")
        assert (code, err) == (0, "")
        _, csw_out, _ = run_cli("csw", "--game", "NC00_C5", "--v0", v0, "--v1", "1", "--format", "json")
        assert json.loads(out)["csw"] == json.loads(csw_out)["csw"]


def test_duplicate_question_id_exits_3(tmp_path):
    doc = game_to_document(builtin_game("NC00_C5"), PayoffParams(Fraction(2, 3), Fraction(1)))
    doc["questions"][1]["id"] = "Ta"
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("quantum", "--game", str(path))
    assert (code, out) == (3, "")
    assert "duplicate question id" in err


def test_malformed_document_exits_3(tmp_path):
    base = game_to_document(builtin_game("NC00_C5"), PayoffParams(Fraction(2, 3), Fraction(1)))
    out_of_range = json.loads(json.dumps(base))
    out_of_range["questions"][1]["K"] = [7]
    not_a_list = dict(base, questions=5)
    huge_n = dict(base, n=10**30)
    for doc in (out_of_range, not_a_list, huge_n):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        began = time.perf_counter()
        code, out, err = run_cli("nash", "--game", str(path))
        assert time.perf_counter() - began < 1
        assert (code, out) == (3, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_players_needed_json():
    code, out, _ = run_cli(
        "players-needed", "--game", "NC00_C5", "--v0", "2/3", "--v1", "1", "--eps", "1/100"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 26 and doc["playerCount"] == 130
    assert doc["decayFactor"] == "5/6"


def test_players_needed_non_geometric_json():
    # two-point frontiers: c3*c1 != c2^2, and k is the first computed ratio <= eps
    cases = {
        ("NC000_C5", "13/60"): {
            "achievedRatio": "78640000000000000000/8209244707492889698417",
            "baseRatio": "960/949",
            "decayFactor": "191/300",
            "eps": "1/100",
            "geometricDecay": False,
            "k": 18,
            "playerCount": 90,
        },
        ("NC00010_C5", "24/60"): {
            "achievedRatio": "79600000000000000000/10233442032628122774739",
            "baseRatio": "80/91",
            "decayFactor": "199/260",
            "eps": "1/100",
            "geometricDecay": False,
            "k": 19,
            "playerCount": 95,
        },
    }
    for (game, v0), want in cases.items():
        code, out, err = run_cli("players-needed", "--game", game, "--v0", v0, "--v1", "1", "--eps", "1/100")
        assert (code, err) == (0, "")
        assert json.loads(out) == want


def test_players_needed_past_200_groups_exits_3():
    # 5/6 decay from 23/25 reaches 1/10^15 at k = 190 but 1/10^16 only at k = 203
    base = ("players-needed", "--game", "NC00_C5", "--v0", "2/3", "--v1", "1", "--eps")
    code, out, err = run_cli(*base, f"1/{10**15}")
    assert (code, err) == (0, "")
    assert json.loads(out)["k"] == 190
    code, out, err = run_cli(*base, f"1/{10**16}")
    assert (code, out) == (3, "")
    assert "no k <= 200" in err


def test_csw_command():
    code, out, _ = run_cli("csw", "--game", "NC000_C5", "--v0", "2/3", "--v1", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["csw"] == "28/39" and doc["cswRounded"] == "0.72"


def test_regimes_command():
    code, out, _ = run_cli("regimes", "--game", "NC00_C5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["breakpoints"] == ["1/3", "1/2"]
    counts = [(seg["profileCount"], seg["orbitCount"]) for seg in doc["segments"]]
    assert counts == [(20, 4), (25, 4), (40, 6)]


def test_penalty_command():
    code, out, _ = run_cli(
        "penalty", "--game", "NC01_C5", "--v0", "2/3", "--v1", "1", "--ng", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["profileCount"] == 2
    assert doc["quantumSW"] == "5/6"
    assert doc["socialWelfares"] == ["1/9", "5/18"]


def test_usage_error_exit_2():
    code, _, _ = run_cli("no-such-command")
    assert code == 2
    code, _, _ = run_cli("nash")  # missing --game
    assert code == 2


def test_validation_error_exit_3(tmp_path):
    code, _, err = run_cli("nash", "--game", str(tmp_path / "missing.json"), "--v0", "1/2", "--v1", "1")
    assert code == 3 and "error" in err
    # malformed parameters are validation errors too
    code, _, _ = run_cli("nash", "--game", "NC00_C5", "--v0", "2", "--v1", "1")
    assert code == 3
    code, _, _ = run_cli("nash", "--game", "NC00_C5", "--v0", "1/0", "--v1", "1")
    assert code == 3


def test_game_file_round_trip_through_cli(tmp_path):
    from grapheq import PayoffParams, builtin_game, game_to_document
    from fractions import Fraction

    doc = game_to_document(builtin_game("NC00_C5"), PayoffParams(Fraction(2, 3), Fraction(1)))
    path = tmp_path / "nc00.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli("nash", "--game", str(path), "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 41  # header + 40 rows


def test_verify_subset_passes():
    code, out, _ = run_cli("verify", "--checks", "nash-counts,win-oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("PASS nash-counts")
    assert lines[1].startswith("PASS win-oracle")


def test_verify_unknown_check_exits_3():
    for checks in ("nash-count", "nash-counts,win_oracle"):
        code, out, err = run_cli("verify", "--checks", checks)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1
        assert err == (
            f"error: unknown check(s): {checks.split(',')[-1]}; valid checks: nash-counts, "
            "nash-reference-table, equilibrium-reference-tables, social-welfare, quantum-guarantees, "
            "quantum-thresholds, penalty-equilibria, kfold-agreement, player-scaling, win-oracle\n"
        )


def test_verify_corrupted_game_file_exits_1(tmp_path):
    from grapheq import PayoffParams, builtin_game, game_to_document
    from fractions import Fraction

    doc = game_to_document(builtin_game("NC00_C5"), PayoffParams(Fraction(2, 3), Fraction(1)))
    doc["questions"][0]["w"] = "1/7"  # weights no longer sum to 1
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli("verify", "--game", str(path), "--checks", "nash-counts")
    assert code == 1
    first = out.strip().splitlines()[0]
    assert first.startswith("FAIL game-file")


def test_verify_invalid_payoffs_fail_game_file(tmp_path):
    doc = game_to_document(builtin_game("NC00_C5"), PayoffParams(Fraction(2, 3), Fraction(1)))
    doc["payoffs"]["v0"] = "2"  # v0 > v1
    path = tmp_path / "payoffs.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli("verify", "--game", str(path), "--checks", "nash-counts")
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL game-file: bad payoffs")
    code, out, err = run_cli("nash", "--game", str(path))
    assert (code, out) == (3, "") and err.startswith("error: bad payoffs")


def test_corr_lp_on_seven_player_game_file(tmp_path):
    path = tmp_path / "c7.json"
    path.write_text(json.dumps(game_to_document(cycle_game(7), PayoffParams(Fraction(2, 3), Fraction(1)))))
    code, out, _ = run_cli("corr-lp", "--game", str(path))
    assert code == 0
    assert json.loads(out) == {
        "game": "C7", "bestCorrelatedSW": "205/248", "bestNashSW": "45/56", "qsw": "5/6"
    }


def test_huge_weight_denominators_exit_0(tmp_path):
    # weights 1/2^70 put the table scale past int64: the table holds
    # Python ints, and every answer must agree with ``evaluate``
    from helpers import brute_force_sets, profile_evaluations, scaled_document
    from grapheq import game_from_document

    doc = scaled_document(2**70)
    game, params = game_from_document(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    results = {}
    for command in ("nash", "regimes", "csw"):
        code, out, err = run_cli(command, "--game", str(path), "--format", "json")
        assert (code, err) == (0, "")
        results[command] = json.loads(out)
    nash = brute_force_sets(game, params)["nash"]
    assert [tuple(e["profile"]) for e in results["nash"]["entries"]] == nash
    evals = profile_evaluations(game)
    sw = {p: evals[p].social_welfare(params) for p in nash}
    best = max(sw.values())
    assert Fraction(results["csw"]["csw"]) == best
    assert [tuple(p) for p in results["csw"]["argmax"]] == [p for p in nash if sw[p] == best]
    (segment,) = [
        s for s in results["regimes"]["segments"]
        if Fraction(s["lower"]) < params.ratio < Fraction(s["upper"])
    ]
    assert segment["profileCount"] == len(nash)


def test_regimes_searches_symmetries_once(monkeypatch):
    # one group serves the orbit partition of every segment
    calls, search = [], classical.reporting_symmetries

    def counting(game):
        calls.append(game.name)
        return search(game)

    monkeypatch.setattr(cli, "reporting_symmetries", counting, raising=False)
    monkeypatch.setattr(classical, "reporting_symmetries", counting)
    code, out, _ = run_cli("regimes", "--game", "NC00_C5")
    assert (code, out.count(" orbits\n")) == (0, 3)
    assert calls == ["NC00_C5"]
