"""Shared exception types.

OperadicError covers invalid inputs and violated invariants.
UsageError covers malformed invocations and unparsable terms.
"""


class OperadicError(ValueError):
    pass


class UsageError(OperadicError):
    pass
