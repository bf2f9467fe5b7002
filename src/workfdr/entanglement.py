"""Negativity of two-qubit states via the partial transpose.

The trace norm is taken from the eigenvalues of the (Hermitian) partial
transpose, and both definitions of the negativity -- the sum of absolute
negative eigenvalues and (||rho^PT||_1 - 1)/2 -- are computed and
cross-checked on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailureError, ValidationError, require_finite, require_int
from .linalg import check_density, hermitian_eigenvalues, partial_transpose_A
from .model import CartanCoefficients, cartan_entangler

CROSS_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class NegativityResult:
    """Entanglement negativity plus the negative partial-transpose eigenvalues behind it."""

    value: float
    negative_eigenvalues: tuple[float, ...]


def negativity(rho: np.ndarray) -> NegativityResult:
    """Negativity of a 4x4 density matrix; zero exactly on product states."""
    rho = check_density(rho)
    if rho.shape != (4, 4):
        raise ValidationError("negativity is defined here for 4x4 two-qubit densities")
    eigenvalues = hermitian_eigenvalues(partial_transpose_A(rho))
    negatives = tuple(float(v) for v in eigenvalues if v < 0.0)
    value = -math.fsum(negatives)
    trace_norm = math.fsum(abs(float(v)) for v in eigenvalues)
    alternate = (trace_norm - 1.0) / 2.0
    if abs(value - alternate) > CROSS_CHECK_TOL:
        raise NumericFailureError(
            f"negativity self-check failed: {value!r} vs (||.||_1 - 1)/2 = {alternate!r}"
        )
    return NegativityResult(value=value, negative_eigenvalues=negatives)


def negativity_cartan_basis(u: int, c1: float, c2: float) -> float:
    """Closed-form negativity of the entangled image of computational basis state u.

    The degenerate pair |01>, |10> (u = 1, 2) gives |sin(2c1 + 2c2)|/2; the
    non-degenerate pair |00>, |11> (u = 0, 3) gives |sin(2c1 - 2c2)|/2.
    Independent of the zz entangler angle.
    """
    u = require_int("u", u, minimum=0, maximum=3)
    require_finite(c1=c1, c2=c2)
    if u in (1, 2):
        return 0.5 * abs(math.sin(2.0 * c1 + 2.0 * c2))
    return 0.5 * abs(math.sin(2.0 * c1 - 2.0 * c2))


def cartan_basis_negativities(c1: float, c2: float, c3: float) -> list[tuple[int, float, float]]:
    """(u, numerical, closed form) for each computational basis state u: the negativity of
    its image under the Cartan entangler, by partial transpose and by negativity_cartan_basis."""
    gate = cartan_entangler(CartanCoefficients(c1, c2, c3))
    states = [np.outer(gate[:, u], gate[:, u].conj()) for u in range(4)]
    return [(u, negativity(rho).value, negativity_cartan_basis(u, c1, c2)) for u, rho in enumerate(states)]
