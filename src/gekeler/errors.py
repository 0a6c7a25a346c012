"""Exception types shared across the package.

InputError and its subclasses signal rejected inputs (CLI exit code 2);
InternalCheckError signals a violated internal invariant (exit code 1).
"""


class InputError(ValueError):
    """The input violates a documented precondition."""


class InseparableError(InputError):
    """f is inseparable; this branch of the theory is out of scope."""

    def __init__(self, msg="f is inseparable (d f/d x vanishes); the "
                           "inseparable branch is out of scope"):
        super().__init__(msg)


class ReducibleError(InputError):
    """f is reducible over F_q(T)."""


DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(InputError):
    """An exhaustive enumeration would exceed the configured budget."""


class NotContained(InputError):
    """A lattice containment required by an operation does not hold."""


class InternalCheckError(RuntimeError):
    """An internal consistency check failed; indicates a bug."""
