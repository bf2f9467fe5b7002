"""Negativity of two-qubit states via the partial transpose.

The trace norm is taken from the eigenvalues of the (Hermitian) partial
transpose, and both definitions of the negativity -- the sum of absolute
negative eigenvalues and (||rho^PT||_1 - 1)/2 -- are computed and
cross-checked on every call.
"""

import math

import numpy as np

from .errors import NumericFailureError, ValidationError, require_finite, require_int
from .linalg import _freeze, check_density, hermitian_eigenvalues, partial_transpose_A, require_each
from .model import CartanCoefficients, cartan_entangler

CROSS_CHECK_TOL = 1e-10


def negativity(rho: np.ndarray) -> np.ndarray:
    """Negativity of a 4x4 density matrix (a 0-d array), or of each matrix of a (k, 4, 4) stack
    (shape (k,)), all solved in one eigensolver call; a write-protected float64 array, zero
    exactly on product states."""
    rho = check_density(rho)
    if rho.shape[-1] != 4:
        raise ValidationError("negativity is defined here for 4x4 two-qubit densities")
    spectra = hermitian_eigenvalues(partial_transpose_A(rho)).reshape(-1, 4).tolist()
    values = np.array([-math.fsum(v for v in e if v < 0.0) for e in spectra]).reshape(rho.shape[:-2])
    alternates = np.array([(math.fsum(abs(v) for v in e) - 1.0) / 2.0 for e in spectra]).reshape(values.shape)
    message = "negativity self-check failed: {!r} vs (||.||_1 - 1)/2 = {!r}"
    require_each(np.abs(values - alternates) <= CROSS_CHECK_TOL, message, values, alternates, error=NumericFailureError)
    return _freeze(values)


def column_states(unitaries) -> np.ndarray:
    """The (k * 4, 4, 4) stack of pure states |u_j><u_j|, one per column u_j of each 4x4
    unitary of a (4, 4) matrix or (k, 4, 4) stack, in order."""
    columns = np.asarray(unitaries).swapaxes(-2, -1).reshape(-1, 4)
    return columns[:, :, None] * columns.conj()[:, None, :]


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
    states = column_states(cartan_entangler(CartanCoefficients(c1, c2, c3)))
    return [(u, value, negativity_cartan_basis(u, c1, c2)) for u, value in enumerate(negativity(states).tolist())]
