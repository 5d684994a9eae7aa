"""Exact analysis of conflict-of-interest parity games built from graph states.

The package constructs games whose winning condition comes from graph-state
stabilizers, enumerates their pure classical equilibria exactly, computes the
quantum advice correlation with its guarantees and equilibrium threshold, and
measures how penalties and k-fold repetition widen the classical/quantum
social-welfare gap.  All analysis arithmetic is rational.
"""

__version__ = "0.1.0"

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
    game_automorphisms,
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
    AdviceCorrelation,
    DEVIATION_POLICIES,
    DeviationTable,
    advice_correlation,
    deviation_payoff_coefficients,
    deviation_table,
    is_quantum_nash,
    p_involved_given_advice,
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
