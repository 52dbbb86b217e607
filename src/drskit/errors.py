"""Exception hierarchy shared across the toolkit.

The CLI maps error categories to exit codes: input/schema problems exit
with 2, computation infeasibility with 3, internal invariant violations
with 4.
"""


class ToolkitError(Exception):
    exit_code = 2


class InputError(ToolkitError):
    """Invalid input data or a schema violation."""

    exit_code = 2


class InfeasibleError(ToolkitError):
    """The requested computation cannot be carried out on these inputs."""

    exit_code = 3


class InvariantError(ToolkitError):
    """An internal invariant was violated; indicates a bug, not bad input."""

    exit_code = 4


# rate-quality modelling
class TooFewPoints(InputError):
    pass


class NonFinite(InputError):
    pass


class InvalidRange(InputError):
    pass


# cross-over benchmarking
class MismatchedPair(InputError):
    pass


class NotEvaluable(InputError):
    pass


class NoComparablePairs(InfeasibleError):
    pass


class DegenerateInput(InputError):
    pass


# quality model training
class EmptyTrainingSet(InputError):
    pass


class SchemaMismatch(InputError):
    pass


class InsufficientContents(InfeasibleError):
    pass


class InvalidHyperparameter(InputError):
    pass


# bitstream parsing
class BitstreamExhausted(InputError):
    pass


class UnsupportedProfile(InputError):
    pass


class MissingParameterSet(InputError):
    pass


class MalformedSyntax(InputError):
    pass


class NoIdrFound(InputError):
    pass


class EmptyInput(InputError):
    pass


# ladder optimization and switching simulation
class IncompleteLog(InputError):
    pass


class TooManyCandidates(InfeasibleError):
    pass


class InfeasibleK(InfeasibleError):
    pass


class MissingRung(InputError):
    pass


class NoOverlap(InfeasibleError):
    pass


class MismatchedTraces(InputError):
    pass


class NonMonotonicCurve(InfeasibleError):
    """Quality values cannot be inverted to a rate axis (duplicates)."""


class CsvSchemaError(InputError):
    """CSV schema violation; carries the offending row number when known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
