"""Exception types shared across the package, and the input checks that raise them."""

from __future__ import annotations

import math


class WorkFdrError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(WorkFdrError):
    """A user-supplied parameter is invalid (non-finite angle, negative beta, ...)."""


class UnsupportedDimensionError(WorkFdrError):
    """A matrix dimension falls outside the supported 2x2 / 4x4 range."""


class ContractViolationError(WorkFdrError):
    """An input failed a precondition (non-unitary, non-Hermitian, bad density, ...)."""


class NumericFailureError(WorkFdrError):
    """An internal numerical routine failed to converge or failed a self-check."""


def require_finite(**values: float) -> None:
    """Raise ValidationError naming the first keyword value that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


def require_beta(beta: float) -> float:
    """Check an inverse temperature (finite, >= 0) and return it as a float."""
    require_finite(beta=beta)
    if beta < 0.0:
        raise ValidationError(f"beta must be non-negative, got {beta}")
    return float(beta)
