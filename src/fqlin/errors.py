"""Exception taxonomy for the kernel.

Every failure the CLI can surface maps to one of four exit codes:
validation problems (malformed input, bad grammar) exit 2, violated
mathematical preconditions exit 3, convergence or precision failures
exit 4, and residue equations that leave the configured coefficient
field exit 5.
"""


class KernelError(Exception):
    exit_code = 1


class ValidationError(KernelError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class ParseError(ValidationError):
    """Syntax error in the textual series grammar."""

    def __init__(self, message, position, expected=None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class PreconditionError(KernelError):
    """An operation was called outside its mathematical domain."""

    exit_code = 3


class DivisionByZero(PreconditionError):
    pass


class ZeroInput(PreconditionError):
    pass


class ZeroDenominator(PreconditionError):
    pass


class NotAUnit(PreconditionError):
    pass


class NotSolvable(PreconditionError):
    pass


class OutsideConvergenceDomain(PreconditionError):
    pass


class PerfectionDepthExceeded(PreconditionError):
    pass


class ComputationError(KernelError):
    exit_code = 4


class NonConvergent(ComputationError):
    pass


class PrecisionExhausted(ComputationError):
    pass


class ResidualCheckFailed(ComputationError):
    pass


class NeedsFieldExtension(KernelError):
    """The solution leaves F_{q^s}; carries the missing relative degree."""

    exit_code = 5

    def __init__(self, required_degree, message):
        self.required_degree = required_degree
        super().__init__(message)
