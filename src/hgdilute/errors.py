"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: input problems (parse errors, violated
preconditions, exceeded size limits) map to 2, exhausted search budgets to 3.
"""


class HgError(Exception):
    """Base class for all package errors."""


class ParseError(HgError):
    """A text or JSON artifact could not be parsed."""


class InvalidInputError(HgError):
    """A precondition on operation inputs is violated."""


class LimitExceededError(InvalidInputError):
    """Input exceeds the configured exact-computation size limit."""


class InvalidStepError(InvalidInputError):
    """A dilution step does not apply to the hypergraph at hand.

    ``index`` is the position of the failing step when a whole sequence was
    being applied, counted from 0, else None.  The message counts steps from
    1, as sequence files and their parse errors do.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"step {index + 1}: {message}")
        self.index = index


class BudgetExceededError(HgError):
    """A search exhausted its node/state budget; the result is inconclusive."""


class ConstructionError(HgError):
    """A constructive transform produced an artifact that fails verification.

    Raised instead of silently returning a bad witness, so gaps between the
    construction and its validator surface loudly.
    """
