"""Acceptance gate: one test per shipped guarantee, exact tolerances.

Each test prints a PASS/FAIL line (visible with -s or on failure); the same
checks back the ``grapheq verify`` command.
"""

import pytest

from grapheq import acceptance


@pytest.mark.parametrize(
    "check",
    acceptance.ALL_CHECKS,
    ids=[c.__name__.removeprefix("check_") for c in acceptance.ALL_CHECKS],
)
def test_acceptance(check):
    result = check()
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_kfold_agreement_builds_the_pair_matrix_once(monkeypatch):
    from grapheq import amplification

    calls = []
    bruteforce = amplification.product_nash_matrix_bruteforce

    def counted(*args, **kwargs):
        calls.append(args)
        return bruteforce(*args, **kwargs)

    monkeypatch.setattr(acceptance, "product_nash_matrix_bruteforce", counted)
    monkeypatch.setattr(amplification, "product_nash_matrix_bruteforce", counted)
    assert acceptance.check_kfold_agreement() == acceptance.CheckResult(
        "kfold-agreement",
        True,
        "nash sets equal (1600 pairs), best CSW 23/36, decay 5/6 per extra group "
        "(exponent k-1; the exponent-k reading does not match the k=2 oracle)",
    )
    assert len(calls) == 1
