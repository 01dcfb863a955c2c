"""Shared exception types."""


class BudgetError(RuntimeError):
    """An enumeration or matrix size exceeded its configured budget."""


class ConvergenceError(RuntimeError):
    """A convergence certificate is absent or violated."""
