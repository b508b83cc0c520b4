"""Exception types shared across the package."""


class BTError(Exception):
    """Base class for all btembed errors."""


class EmptyAlphabetError(BTError):
    """A schema needs at least one token and one attribute."""


class DuplicateNameError(BTError):
    """Token or attribute names within a schema must be distinct."""


class NonReflexiveError(BTError):
    """Every attribute name must also appear among the tokens."""


class DimensionTooSmallError(BTError):
    """Embedding dimension below the supported minimum."""


class SchemaMismatchError(BTError):
    """Operands come from different embeddings, or a vector's dim is not its embedding's."""


class BudgetExceededError(BTError):
    """A budget was hit: the decoder's node budget min(d, 2|v|^2 + 1), or a subclass's."""


class PathTooLongError(BudgetExceededError):
    """Query path of 64 or more steps: more slots than the transformer's context of 64 holds."""


class ArityExceededError(BTError):
    """Rule pattern is longer than the schema's argument attribute list."""


class NoParseError(BTError):
    """Rewriting halted with more than one slot and no applicable rule."""


class StepBudgetExceededError(BudgetExceededError):
    """Rewriting ran past parser.step_budget, (n - 1) + u(2n - 1) steps for n slots, u unary rules."""


class InvalidSpecError(BTError):
    """Sweep specification is malformed."""


class FileFormatError(BTError):
    """Binary file has a bad magic, version, or inconsistent header."""
