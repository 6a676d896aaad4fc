"""Exception types shared across the package."""


class NomaHarqError(Exception):
    """Base class for all package errors."""


class ConsistencyError(NomaHarqError):
    """An internal invariant was violated (e.g. transition rows not stochastic)."""


class NumericalError(NomaHarqError):
    """A numerical solve failed to reach the required residual."""


class ReducibleChainError(NumericalError):
    """The chain has several closed classes, so no unique stationary vector."""


class InfeasibleError(NomaHarqError):
    """No feasible solution within the search bounds.

    Carries the best objective value found so callers can report how far
    the search got.
    """

    def __init__(self, message, best_value=None):
        super().__init__(message)
        self.best_value = best_value
