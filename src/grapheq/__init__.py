"""Exact analysis of conflict-of-interest parity games built from graph states.

The package constructs games whose winning condition comes from graph-state
stabilizers, enumerates their pure classical equilibria exactly, computes the
quantum advice correlation with its guarantees and equilibrium threshold, and
measures how penalties and k-fold repetition widen the classical/quantum
social-welfare gap.  All analysis arithmetic is rational.

No analysis path calls BLAS: table, scan and k-fold arithmetic is integer
or object, and the LP's float basis uses elementwise ops only.  So when
grapheq is the first to import numpy, it loads OpenBLAS with one thread
instead of leaving an idle worker to spin on every CPU.  The variable is
set only for that load and removed again, so ``os.environ`` and child
processes see what the caller set.  A thread count the caller sets in
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` wins,
and a numpy imported before grapheq keeps its threads.
"""

import os
import sys

__version__ = "0.1.0"

if "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .amplification import (
    GroupTable,
    JointQuestion,
    KfoldReport,
    PenaltyReport,
    PlayersNeeded,
    ProductGameSpec,
    evaluate_product,
    kfold,
    kfold_best_csw,
    kfold_bruteforce_csw,
    penalty_report,
    players_needed,
    verify_product_perfect_win,
)
from .classical import (
    EquilibriumEntry,
    EquilibriumReport,
    LinearPayoff,
    Orbit,
    PayoffTable,
    ProfileEvaluation,
    RegimeAnalysis,
    SymmetryGroup,
    apply_local,
    best_csw,
    build_report,
    code_to_profile,
    enumerate_nash,
    enumerate_pareto,
    evaluate,
    partition_orbits,
    profile_to_code,
    ratio_regimes,
    reporting_symmetries,
)
from .correlated import best_correlated_sw
from .errors import (
    ConditioningOnImpossibleType,
    EmptyEquilibriumSetError,
    GameError,
    InconsistentLawError,
    InvalidGeneratorError,
    LinearProgramError,
    MalformedDocumentError,
    QuestionMismatchError,
    SizeLimitError,
    UnsupportedGameError,
    WeightSumError,
)
from .games import (
    BUILTIN_NAMES,
    GameSpec,
    PayoffParams,
    QuestionSpec,
    builtin_game,
    format_rational,
    game_from_document,
    game_to_document,
    p_involved,
    parse_rational,
)
from .quantum import (
    DEVIATION_POLICIES,
    DeviationTable,
    advice_correlation,
    deviation_payoff_coefficients,
    deviation_table,
    is_quantum_nash,
    quantum_player_utilities,
    quantum_threshold,
    qsw,
    verify_perfect_win,
    verify_uniform_and_belief_invariant,
)
from .stabilizer import (
    Graph,
    OutcomeLaw,
    PauliWord,
    QuestionDerivation,
    derive_question,
    outcome_law,
    stabilizer_word,
)
