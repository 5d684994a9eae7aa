"""Exception types shared across the package."""


class GameError(Exception):
    """Base class for invalid games, parameters or unsupported analyses."""


class WeightSumError(GameError):
    """Question weights do not sum to 1."""


class InvalidGeneratorError(GameError):
    """A generator set does not induce a valid question on the graph."""


class QuestionMismatchError(GameError):
    """Declared type/involved/parity data disagrees with the generator set."""


class MalformedDocumentError(GameError):
    """A game document failed to parse or validate structurally."""


class ConditioningOnImpossibleType(GameError):
    """No question gives the player the requested type."""


class UnsupportedGameError(GameError):
    """The operation needs stabilizer-backed questions (generator sets)."""


class SizeLimitError(GameError):
    """Problem size exceeds the exact-search limit."""


class EmptyEquilibriumSetError(GameError):
    """No profile satisfies the requested equilibrium criterion."""


class LinearProgramError(GameError):
    """A linear program has no certified optimum: the float pass found no
    basis, or its basis failed the exact proof."""


class InconsistentLawError(GameError):
    """Parity constraints of an outcome law are mutually inconsistent."""
