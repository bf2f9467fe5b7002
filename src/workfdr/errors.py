"""Exception types shared across the package, and the input checks that raise them."""

import math
import numbers

import numpy as np


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


def _echo(value, show=repr) -> str:
    """show(value) as a refusal shows it: at most 40 characters, a longer text as its head, "…" and its length.
    Python turns no int of more than sys.get_int_max_str_digits() digits (4,300 by default) into text, so
    such an int shows its bit length, and another value holding one (a Fraction, ...) its type."""
    try:
        text = show(value)
    except ValueError:
        if isinstance(value, numbers.Integral):
            return f"{'a negative' if value < 0 else 'an'} int of {int(value).bit_length()} bits"
        return f"a {type(value).__name__} too long to show"
    return text if len(text) <= 40 else f"{text[:39]}… ({len(text)} characters)"


def require_finite(**values: float) -> None:
    """Raise ValidationError naming the first keyword value that is not a finite real number.

    A bool is not a number here, and an int too large for a float is refused by its range. Of a
    non-empty real numpy array, its first non-finite element is the value checked.
    """
    for name, value in values.items():
        if isinstance(value, np.ndarray) and value.dtype.kind in "fiu" and value.size:
            value = value.flat[np.argmin(np.isfinite(value))]
        # float and int listed first: the abstract numbers.Real check alone takes about 1 us
        if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
            raise ValidationError(f"{name} must be a real number, got {_echo(value)}")
        try:
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {_echo(value)}")
        except OverflowError:  # an int that rounds to 2**1024 or past it, the largest float being 2**1024 - 2**971
            raise ValidationError(f"{name} must be below 2**1024 in magnitude, got {_echo(value)}") from None


def require_int(name: str, value, minimum: int | None = None, maximum: int | None = None) -> int:
    """Check a count, index or seed and return it as an int.

    Accepts an int, a numpy integer or an integral float; rejects bool (a flag
    is not a count) and everything else. Both bounds are inclusive.
    """
    integral = not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer()
    )
    if not integral:
        raise ValidationError(f"{name} must be an integer, got {_echo(value)}")
    result = int(value)
    if minimum is not None and result < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {_echo(value)}")
    if maximum is not None and result > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {_echo(value)}")
    return result


def require_beta(beta: float) -> float:
    """Check an inverse temperature (finite, >= 0) and return it as a float."""
    require_finite(beta=beta)
    if beta < 0.0:
        raise ValidationError(f"beta must be non-negative, got {_echo(beta, str)}")
    return float(beta)


def require_betas(betas) -> np.ndarray:
    """require_beta at every beta of a sequence, as a float64 array: a float64 array in one numpy
    pass, anything else (and an array that fails it, to name the first bad beta) one at a time."""
    if isinstance(betas, np.ndarray) and betas.dtype == np.float64 and ((betas >= 0.0) & (betas < math.inf)).all():
        return betas
    return np.array([require_beta(b) for b in betas], dtype=np.float64)
