"""Shared exception taxonomy.

The CLI maps these onto exit codes: DomainError and ContractError are
usage-class failures (exit 1), ConvergenceError exits 2, CapabilityError
exits 3.
"""


class Z2MemoryError(Exception):
    """Base class for every error raised by this package."""


class DomainError(Z2MemoryError):
    """An argument lies outside the documented domain of the operation."""


class ContractError(Z2MemoryError):
    """A numerical contract was violated (bad norm, wrong shape, asymmetry)."""


class ConvergenceError(Z2MemoryError):
    """No computation can meet the tolerance here: a solver ran out of
    budget, the field's rounding floor reaches the residual bound, LAPACK
    failed (block solve, Gaussian det, Ritz step), a block eigh missed
    the bound by no more than its own rounding, or a gap lies below what
    its two closed-form-checked energies resolve."""

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


class CapabilityError(Z2MemoryError):
    """The request exceeds the desk-scale limits of this implementation."""
